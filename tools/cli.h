// The command-line front end every binary shares. A binary declares
// each key it reads once, in a table of Key rows; Args parses
// key=value arguments against that table and generates the usage from
// it. The keys several binaries read (faults=, mode=, alerts=,
// metrics_csv=, trace_json=, events_jsonl=, export_port=) are wired
// here once, and this is the one place that reads PARCAE_FAULTS: the
// libraries take every knob as an explicit option.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "core/slo.h"
#include "core/telemetry.h"
#include "obs/metrics.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"

namespace parcae::rpc {
class ObsService;
class RpcServer;
class Transport;
}  // namespace parcae::rpc

namespace parcae::cli {

// One key a binary reads: the usage shows it as `name=form`, followed
// by `help`.
struct Key {
  const char* name;
  const char* form;
  const char* help;
};

// Reads all of `text` as a T (int, std::uint64_t or double; integers
// in decimal): false when it does not parse or any of it is left over.
// Args::number reads every numeric value through it, and binaries with
// positional arguments use it directly.
template <typename T>
bool parse_whole(std::string_view text, T& value);

// A binary's key=value arguments, checked against its key table.
class Args {
 public:
  // Parses argv[1..] as key=value; leading dashes are stripped and a
  // bare key holds "". `help` or `h` prints the usage to stdout and
  // exits 0. A key outside `keys` prints "unknown key '<name>'" and
  // the usage to stderr and exits 2. The usage is `about` followed by
  // one line per key. `about` and `keys` must outlive the Args.
  Args(int argc, char** argv, std::string_view about,
       std::span<const Key> keys);

  bool has(std::string_view key) const;
  // The value of `key`, or `fallback` when it is absent. Reading a
  // key the table does not declare throws std::logic_error.
  std::string get(std::string_view key, std::string_view fallback = "") const;

  // The value of `key` read as a number (T is int, std::uint64_t or
  // double), or `fallback` when the key is absent. The whole value must
  // parse, integers in decimal; otherwise fail("bad value for '<key>':
  // '<value>'").
  template <typename T>
  T number(std::string_view key, T fallback) const;

  // The value of `key` split at `sep`, each part read as number() reads
  // a whole value (replicas=8x2, replay_rps=40,60); empty when the key
  // is absent.
  template <typename T>
  std::vector<T> numbers(std::string_view key, char sep) const;

  // Prints `message` and the usage to stderr and exits 2.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void print_usage(std::FILE* out) const;
  bool declared(std::string_view key) const;

  std::string_view about_;
  std::span<const Key> keys_;
  std::map<std::string, std::string, std::less<>> values_;
};

// The fault spec (docs/robustness.md) in the PARCAE_FAULTS environment
// variable, or `fallback` when it is unset or empty.
std::string env_fault_spec(std::string_view fallback = "");

// faults= and faults_seed=: replaces `faults` with an injector seeded
// by faults_seed= (else `default_seed`) and armed with faults= (else
// env_fault_spec()). It stays unarmed when neither is set. Returns
// false after printing "bad fault spec" when the spec does not parse.
bool arm_faults(const Args& args, std::uint64_t default_seed,
                FaultInjector& faults);

// mode=tick|event: sets `event_driven`. Returns false after printing
// why for any other value.
bool read_mode(const Args& args, bool& event_driven);

// alerts=: sets `slo` to an engine with the rules alerts= names
// (alerts=default arms `defaults`), or leaves it null when the key is
// absent. Returns false after printing "bad alert spec" when the spec
// does not parse.
bool arm_alerts(const Args& args, std::vector<SloRule> defaults,
                std::unique_ptr<SloEngine>& slo);
// The end-of-run alert report, and the alerts_jsonl= file. Prints
// nothing when `slo` is null.
void report_alerts(const Args& args, const SloEngine* slo);

// metrics_csv=, trace_json= and events_jsonl=: each writes its file
// when the key is set and prints what it wrote.
void write_metrics_csv(const Args& args,
                       const obs::TimeSeriesRecorder& series);
void write_trace_json(const Args& args, const obs::TraceWriter& tracer);
void write_events_jsonl(const Args& args, const EventLog& events);

// export_port=: serves `provider`'s snapshots as Prometheus text over
// TCP RPC (method "obs.metrics"; 0 = an ephemeral port) until it is
// destroyed, and prints "serving <what> on <address>". Does nothing
// when the key is absent. `faults` (nullable) arms "obs.export".
class Exporter {
 public:
  Exporter(const Args& args, std::function<obs::MetricsSnapshot()> provider,
           FaultInjector* faults, std::string_view what);
  ~Exporter();

  // Scrapes the endpoint once over the wire and prints the byte count.
  void self_scrape() const;

 private:
  // The server goes first: it stops before the service it calls into
  // and the transport it serves on are destroyed.
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<rpc::ObsService> service_;
  std::unique_ptr<rpc::RpcServer> server_;
};

}  // namespace parcae::cli
