#include "cli.h"

#include <charconv>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "rpc/obs_service.h"
#include "rpc/rpc.h"
#include "rpc/transport.h"

namespace parcae::cli {

namespace {

// Width of the `name=form` column in the generated usage.
constexpr std::size_t kFormColumn = 24;

}  // namespace

template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

template bool parse_whole(std::string_view, int&);
template bool parse_whole(std::string_view, std::uint64_t&);
template bool parse_whole(std::string_view, double&);

Args::Args(int argc, char** argv, std::string_view about,
           std::span<const Key> keys)
    : about_(about), keys_(keys) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept GNU-style spellings (--seed=8) for every key.
    arg.erase(0, arg.find_first_not_of('-'));
    const auto eq = arg.find('=');
    if (eq == std::string::npos)
      values_[arg] = "";
    else
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  if (has("help") || has("h")) {
    print_usage(stdout);
    std::exit(0);
  }
  // A misspelled or retired key would otherwise run on defaults.
  for (const auto& [name, value] : values_)
    if (!declared(name)) fail("unknown key '" + name + "'");
}

bool Args::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::string Args::get(std::string_view key, std::string_view fallback) const {
  if (!declared(key))
    throw std::logic_error("cli: key '" + std::string(key) +
                           "' is read but not in the key table");
  const auto it = values_.find(key);
  return it == values_.end() ? std::string(fallback) : it->second;
}

template <typename T>
T Args::number(std::string_view key, T fallback) const {
  const std::string text = get(key);
  if (!has(key)) return fallback;
  T value{};
  if (!parse_whole(text, value))
    fail("bad value for '" + std::string(key) + "': '" + text + "'");
  return value;
}

template <typename T>
std::vector<T> Args::numbers(std::string_view key, char sep) const {
  const std::string text = get(key);
  std::vector<T> values;
  if (!has(key)) return values;
  for (std::size_t pos = 0;;) {
    const std::size_t next = text.find(sep, pos);
    const std::string_view part =
        std::string_view(text).substr(pos, next - pos);
    if (!parse_whole(part, values.emplace_back()))
      fail("bad value for '" + std::string(key) + "': '" + text + "'");
    if (next == std::string::npos) return values;
    pos = next + 1;
  }
}

template int Args::number(std::string_view, int) const;
template std::uint64_t Args::number(std::string_view, std::uint64_t) const;
template double Args::number(std::string_view, double) const;
template std::vector<int> Args::numbers(std::string_view, char) const;
template std::vector<double> Args::numbers(std::string_view, char) const;

void Args::fail(const std::string& message) const {
  std::fprintf(stderr, "%s\n\n", message.c_str());
  print_usage(stderr);
  std::exit(2);
}

void Args::print_usage(std::FILE* out) const {
  std::fprintf(out, "%.*s\nkeys:\n", static_cast<int>(about_.size()),
               about_.data());
  for (const Key& key : keys_) {
    const std::string form = std::string(key.name) + "=" + key.form;
    if (form.size() < kFormColumn)
      std::fprintf(out, "  %-*s %s\n", static_cast<int>(kFormColumn),
                   form.c_str(), key.help);
    else
      std::fprintf(out, "  %s\n  %*s %s\n", form.c_str(),
                   static_cast<int>(kFormColumn), "", key.help);
  }
  std::fprintf(out, "  %-*s %s\n", static_cast<int>(kFormColumn), "help",
               "print this usage and exit");
}

bool Args::declared(std::string_view key) const {
  for (const Key& k : keys_)
    if (key == k.name) return true;
  return false;
}

std::string env_fault_spec(std::string_view fallback) {
  if (const char* env = std::getenv("PARCAE_FAULTS");
      env != nullptr && *env != '\0')
    return env;
  return std::string(fallback);
}

bool arm_faults(const Args& args, std::uint64_t default_seed,
                FaultInjector& faults) {
  faults = FaultInjector(args.number("faults_seed", default_seed));
  std::string spec = args.get("faults");
  if (spec.empty()) spec = env_fault_spec();
  std::string error;
  if (spec.empty() || faults.arm_from_spec(spec, &error)) return true;
  std::fprintf(stderr, "bad fault spec '%s': %s\n", spec.c_str(),
               error.c_str());
  return false;
}

bool read_mode(const Args& args, bool& event_driven) {
  const std::string mode = args.get("mode", "tick");
  if (mode != "tick" && mode != "event") {
    std::fprintf(stderr, "mode=%s: expected tick or event\n", mode.c_str());
    return false;
  }
  event_driven = mode == "event";
  return true;
}

bool arm_alerts(const Args& args, std::vector<SloRule> defaults,
                std::unique_ptr<SloEngine>& slo) {
  const std::string spec = args.get("alerts");
  if (spec.empty()) return true;
  std::string error;
  std::vector<SloRule> rules = spec == "default"
                                   ? std::move(defaults)
                                   : SloEngine::parse_rules(spec, &error);
  if (rules.empty()) {
    std::fprintf(stderr, "bad alert spec '%s': %s\n", spec.c_str(),
                 error.c_str());
    return false;
  }
  slo = std::make_unique<SloEngine>(std::move(rules));
  return true;
}

void report_alerts(const Args& args, const SloEngine* slo) {
  if (slo == nullptr) return;
  const std::string table = slo->render();
  if (table.empty())
    std::printf("\nalerts: none fired (%zu rules armed)\n",
                slo->rules().size());
  else
    std::printf("\nalerts (%zu fired):\n%s", slo->alerts().size(),
                table.c_str());
  const std::string path = args.get("alerts_jsonl");
  if (path.empty()) return;
  if (slo->write_jsonl(path))
    std::printf("wrote %s (%zu alerts)\n", path.c_str(),
                slo->alerts().size());
  else
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void write_metrics_csv(const Args& args,
                       const obs::TimeSeriesRecorder& series) {
  const std::string path = args.get("metrics_csv");
  if (path.empty()) return;
  if (series.write_csv(path))
    std::printf("wrote %s (%zu intervals)\n", path.c_str(), series.rows());
  else
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void write_trace_json(const Args& args, const obs::TraceWriter& tracer) {
  const std::string path = args.get("trace_json");
  if (path.empty()) return;
  if (tracer.write_file(path))
    std::printf("wrote %s (%zu events)\n", path.c_str(), tracer.size());
  else
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

void write_events_jsonl(const Args& args, const EventLog& events) {
  const std::string path = args.get("events_jsonl");
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string jsonl = events.to_jsonl();
  std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu events)\n", path.c_str(), events.size());
}

Exporter::Exporter(const Args& args,
                   std::function<obs::MetricsSnapshot()> provider,
                   FaultInjector* faults, std::string_view what) {
  if (args.get("export_port").empty()) return;
  transport_ = rpc::make_tcp_transport(args.number("export_port", 0));
  service_ = std::make_unique<rpc::ObsService>(std::move(provider));
  service_->set_fault_injector(faults);
  server_ = std::make_unique<rpc::RpcServer>(*transport_);
  service_->bind(*server_);
  server_->start();
  std::printf("serving %.*s on %s (rpc method \"obs.metrics\")\n",
              static_cast<int>(what.size()), what.data(),
              transport_->address().c_str());
}

Exporter::~Exporter() = default;

void Exporter::self_scrape() const {
  if (server_ == nullptr) return;
  // Prove the endpoint works end to end before the run ends.
  try {
    rpc::RpcClient scraper(*transport_, transport_->address());
    const std::string prom = rpc::ObsClient(scraper).scrape();
    std::printf("exporter self-scrape: %zu bytes of Prometheus text\n",
                prom.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exporter self-scrape failed: %s\n", e.what());
  }
}

}  // namespace parcae::cli
