// Trace serialization: read and write SpotTrace as CSV so users can
// replay availability traces they collected themselves (the paper's
// methodology: collect once, replay on dedicated instances for fair
// comparisons).
//
// Format (header required, events sorted on load):
//   # name: <trace name>            (optional comment lines)
//   initial,capacity,duration_s
//   <int>,<int>,<double>
//   time_s,delta
//   <double>,<int>
//   ...
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "trace/spot_trace.h"

namespace parcae {

// Serializes a trace to the CSV format above.
std::string trace_to_csv(const SpotTrace& trace);
void write_trace_csv(std::ostream& os, const SpotTrace& trace);

// Parses a trace; returns std::nullopt (and fills *error if given) on
// malformed input. Events are clamped/sorted by the SpotTrace
// constructor as usual.
std::optional<SpotTrace> trace_from_csv(const std::string& csv,
                                        std::string* error = nullptr);
std::optional<SpotTrace> read_trace_csv(std::istream& is,
                                        std::string* error = nullptr);

// File helpers; return false / nullopt on IO errors.
bool save_trace(const std::string& path, const SpotTrace& trace);
std::optional<SpotTrace> load_trace(const std::string& path,
                                    std::string* error = nullptr);

// The trace a command line names: a canonical segment (HA-DP, HA-SP,
// LA-DP, LA-SP), "full-day", or else a CSV file for load_trace().
std::optional<SpotTrace> resolve_trace(const std::string& name,
                                       std::string* error = nullptr);

}  // namespace parcae
