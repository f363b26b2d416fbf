#include "trace/trace_io.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace parcae {
namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// Splits a CSV line on commas (no quoting needed for this format).
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  return fields;
}

bool parse_int(const std::string& s, int& out) {
  try {
    std::size_t pos = 0;
    out = std::stoi(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void write_trace_csv(std::ostream& os, const SpotTrace& trace) {
  os << "# name: " << trace.name() << "\n";
  os << "initial,capacity,duration_s\n";
  os << trace.initial_instances() << ',' << trace.capacity() << ','
     << trace.duration_s() << "\n";
  os << "time_s,delta\n";
  for (const auto& e : trace.events()) os << e.time_s << ',' << e.delta << "\n";
}

std::string trace_to_csv(const SpotTrace& trace) {
  std::ostringstream os;
  write_trace_csv(os, trace);
  return os.str();
}

std::optional<SpotTrace> read_trace_csv(std::istream& is,
                                        std::string* error) {
  std::string name = "trace";
  std::string line;
  enum class Section { kHeader, kMeta, kEventHeader, kEvents };
  Section section = Section::kHeader;
  int initial = 0, capacity = 32;
  double duration = 0.0;
  std::vector<TraceEvent> events;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string prefix = "# name: ";
      if (line.compare(0, prefix.size(), prefix) == 0)
        name = line.substr(prefix.size());
      continue;
    }
    switch (section) {
      case Section::kHeader:
        if (line != "initial,capacity,duration_s") {
          set_error(error, "line " + std::to_string(line_no) +
                               ": expected metadata header");
          return std::nullopt;
        }
        section = Section::kMeta;
        break;
      case Section::kMeta: {
        const auto fields = split_fields(line);
        if (fields.size() != 3 || !parse_int(fields[0], initial) ||
            !parse_int(fields[1], capacity) ||
            !parse_double(fields[2], duration)) {
          set_error(error, "line " + std::to_string(line_no) +
                               ": bad metadata row");
          return std::nullopt;
        }
        section = Section::kEventHeader;
        break;
      }
      case Section::kEventHeader:
        if (line != "time_s,delta") {
          set_error(error, "line " + std::to_string(line_no) +
                               ": expected event header");
          return std::nullopt;
        }
        section = Section::kEvents;
        break;
      case Section::kEvents: {
        const auto fields = split_fields(line);
        TraceEvent event;
        if (fields.size() != 2 || !parse_double(fields[0], event.time_s) ||
            !parse_int(fields[1], event.delta)) {
          set_error(error, "line " + std::to_string(line_no) +
                               ": bad event row");
          return std::nullopt;
        }
        events.push_back(event);
        break;
      }
    }
  }
  if (section != Section::kEvents) {
    set_error(error, "truncated trace file");
    return std::nullopt;
  }
  if (initial < 0 || capacity <= 0 || initial > capacity || duration <= 0.0) {
    set_error(error, "inconsistent metadata");
    return std::nullopt;
  }
  return SpotTrace(name, initial, capacity, duration, std::move(events));
}

std::optional<SpotTrace> trace_from_csv(const std::string& csv,
                                        std::string* error) {
  std::istringstream is(csv);
  return read_trace_csv(is, error);
}

bool save_trace(const std::string& path, const SpotTrace& trace) {
  std::ofstream os(path);
  if (!os) return false;
  write_trace_csv(os, trace);
  return static_cast<bool>(os);
}

std::optional<SpotTrace> load_trace(const std::string& path,
                                    std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return read_trace_csv(is, error);
}

std::optional<SpotTrace> resolve_trace(const std::string& name,
                                       std::string* error) {
  for (SpotTrace& segment : all_canonical_segments())
    if (segment.name() == name) return std::move(segment);
  if (name == "full-day") return full_day_trace();
  return load_trace(name, error);
}

}  // namespace parcae
