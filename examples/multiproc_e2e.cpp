// End-to-end multi-process chaos run: real scheduler, standby, and
// agent processes under SIGKILL fault injection (docs/robustness.md).
//
//   multiproc_e2e [key=value ...]
//
// Run `multiproc_e2e help` for the keys.
//
// The run is judged by the surviving scheduler's report:
//   - the run completed (all intervals decided),
//   - if the primary was killed, the standby took over and resumed
//     from the shared WAL,
//   - the synthetic loss converged — a takeover that loses training
//     intervals or a recovery that diverges shows up here.
// Greppable verdict lines (CI asserts on them):
//   standby takeover: yes|no
//   run completed: yes|no
//   final loss: <x> (converged: yes|no)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "common/rng.h"
#include "runtime/process_supervisor.h"

using namespace parcae;

namespace {

constexpr char kAbout[] =
    "multiproc_e2e [key=value ...]\n"
    "\n"
    "Run a real scheduler, standby and agent processes under SIGKILL\n"
    "fault injection and judge the surviving scheduler's report\n"
    "(docs/robustness.md).\n"
    "\n"
    "example:\n"
    "  multiproc_e2e agents=4 kill_agent_at=1.2 kill_primary_at=2.5\n";

constexpr cli::Key kKeys[] = {
    {"agents", "<int>", "agent child processes (default 4)"},
    {"intervals", "<int>", "decision intervals (default 24)"},
    {"tick_ms", "<int>", "scheduler wall pacing (default 120)"},
    {"interval_s", "<float>", "logical seconds per interval (default 60)"},
    {"ttl", "<float>", "agent lease TTL, logical seconds (default 150)"},
    {"standby", "0|1", "also run a standby scheduler (default 1)"},
    {"kill_agent_at", "<float>",
     "wall s to SIGKILL a seeded agent (<0 = never; 1.0)"},
    {"kill_primary_at", "<float>",
     "wall s to SIGKILL the primary (<0 = never; 2.0)"},
    {"port", "<int>", "hub TCP port (default seeded in 21000..22999)"},
    {"seed", "<int>", "victim pick and port seed (default 7)"},
    {"dir", "<path>", "where the wal/report files go (default .)"},
    {"max_wall_s", "<float>", "harness timeout (default 90)"},
    {"agent_bin", "<path>", "agent binary (PARCAE_AGENT_BIN, ../tools/)"},
    {"scheduler_bin", "<path>",
     "scheduler binary (PARCAE_SCHEDULER_BIN, ../tools/)"},
};

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Binary discovery: explicit flag > environment > sibling of this
// executable (build/examples/multiproc_e2e -> build/tools/<name>).
std::string find_binary(const cli::Args& args, const std::string& flag,
                        const char* env, const std::string& argv0,
                        const std::string& name) {
  if (const std::string v = args.get(flag); !v.empty()) return v;
  if (const char* e = std::getenv(env); e != nullptr && *e != '\0') return e;
  std::string dir = ".";
  if (const auto slash = argv0.find_last_of('/'); slash != std::string::npos)
    dir = argv0.substr(0, slash);
  return dir + "/../tools/" + name;
}

// Pulls "key: value" out of a scheduler run report.
std::string report_field(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0)
      return line.substr(key.size() + 2);
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kAbout, kKeys);
  const int agents = args.number("agents", 4);
  const int intervals = args.number("intervals", 24);
  const int tick_ms = args.number("tick_ms", 120);
  const std::string interval_s = args.get("interval_s", "60");
  const std::string ttl = args.get("ttl", "150");
  const bool standby = args.get("standby", "1") != "0";
  const double kill_agent_at = args.number("kill_agent_at", 1.0);
  const double kill_primary_at =
      args.number("kill_primary_at", 2.0);
  const std::uint64_t seed = args.number("seed", std::uint64_t{7});
  const double max_wall_s = args.number("max_wall_s", 90.0);
  const std::string dir = args.get("dir", ".");

  Rng rng(seed ^ 0xe2e);
  const int port =
      args.has("port")
          ? args.number("port", 0)
          : 21000 + static_cast<int>(rng.uniform_int(2000));

  const std::string agent_bin =
      find_binary(args, "agent_bin", "PARCAE_AGENT_BIN", argv[0],
                  "parcae_agent");
  const std::string scheduler_bin =
      find_binary(args, "scheduler_bin", "PARCAE_SCHEDULER_BIN", argv[0],
                  "parcae_scheduler");

  const std::string wal = dir + "/multiproc_e2e.wal";
  const std::string primary_report = dir + "/multiproc_e2e.primary.report";
  const std::string standby_report = dir + "/multiproc_e2e.standby.report";
  std::remove(wal.c_str());
  std::remove(primary_report.c_str());
  std::remove(standby_report.c_str());

  // Agents must outlive the run plus a takeover gap.
  const double agent_wall_s = max_wall_s;

  ProcessSupervisor supervisor;
  std::vector<pid_t> agent_pids;
  for (int i = 0; i < agents; ++i) {
    SpawnSpec spec;
    spec.name = "agent-" + std::to_string(i);
    spec.binary = agent_bin;
    spec.args = {"port=" + std::to_string(port),
                 "id=a" + std::to_string(i), "ttl=" + ttl,
                 "max_wall_s=" + std::to_string(agent_wall_s)};
    agent_pids.push_back(supervisor.spawn(spec));
  }

  const auto scheduler_args = [&](const std::string& role,
                                  const std::string& report) {
    return std::vector<std::string>{
        "role=" + role,
        "wal=" + wal,
        "port=" + std::to_string(port),
        "intervals=" + std::to_string(intervals),
        "tick_ms=" + std::to_string(tick_ms),
        "interval_s=" + interval_s,
        "agents=" + std::to_string(agents),
        "name=" + role,
        "report=" + report};
  };
  SpawnSpec prim;
  prim.name = "primary";
  prim.binary = scheduler_bin;
  prim.args = scheduler_args("primary", primary_report);
  const pid_t primary = supervisor.spawn(prim);

  pid_t standby_pid = -1;
  if (standby) {
    SpawnSpec stby;
    stby.name = "standby";
    stby.binary = scheduler_bin;
    stby.args = scheduler_args("standby", standby_report);
    standby_pid = supervisor.spawn(stby);
  }

  // Chaos + completion loop, all on the wall clock.
  const double t0 = wall_s();
  bool agent_killed = kill_agent_at < 0.0 || agents == 0;
  bool primary_killed = kill_primary_at < 0.0 || !standby;
  bool completed = false;
  bool timed_out = false;
  while (true) {
    const double elapsed = wall_s() - t0;
    if (elapsed > max_wall_s) {
      timed_out = true;
      break;
    }
    if (!agent_killed && elapsed >= kill_agent_at) {
      const pid_t victim = agent_pids[rng.uniform_int(
          static_cast<std::uint64_t>(agent_pids.size()))];
      std::printf("[%.2fs] SIGKILL %s (pid %d)\n", elapsed,
                  supervisor.name_of(victim).c_str(), victim);
      supervisor.sigkill(victim);
      agent_killed = true;
    }
    if (!primary_killed && elapsed >= kill_primary_at) {
      std::printf("[%.2fs] SIGKILL primary (pid %d)\n", elapsed, primary);
      supervisor.sigkill(primary);
      primary_killed = true;
    }
    // The run is over when whichever scheduler still owns it exits.
    if (!supervisor.alive(primary) &&
        (standby_pid < 0 || !supervisor.alive(standby_pid))) {
      const auto prc = supervisor.exit_status(primary);
      const auto src = standby_pid < 0
                           ? std::optional<ExitStatus>{}
                           : supervisor.exit_status(standby_pid);
      const bool primary_ok = prc.has_value() && !prc->signaled &&
                              prc->exit_code == 0;
      const bool standby_ok = src.has_value() && !src->signaled &&
                              src->exit_code == 0;
      completed = primary_ok || standby_ok;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  supervisor.shutdown_all(0.5);

  // Judge from the surviving scheduler's report.
  const std::string report_path =
      primary_killed && standby ? standby_report : primary_report;
  std::string report;
  {
    std::ifstream in(report_path);
    std::stringstream buf;
    buf << in.rdbuf();
    report = buf.str();
  }
  const bool took_over = report_field(report, "standby takeover") == "yes";
  const bool converged = report_field(report, "converged") == "yes";
  const std::string loss = report_field(report, "final loss");
  const std::string truncated =
      report_field(report, "wal truncated records");

  if (timed_out) std::printf("TIMED OUT after %.0fs\n", max_wall_s);
  std::printf("report: %s\n", report_path.c_str());
  std::printf("standby takeover: %s\n", took_over ? "yes" : "no");
  std::printf("run completed: %s\n", completed && !report.empty() ? "yes"
                                                                  : "no");
  std::printf("final loss: %s (converged: %s)\n",
              loss.empty() ? "?" : loss.c_str(), converged ? "yes" : "no");
  std::printf("wal truncated records: %s\n",
              truncated.empty() ? "0" : truncated.c_str());

  bool ok = completed && !report.empty() && converged && !timed_out;
  // A primary kill with a standby watching must produce a takeover.
  if (primary_killed && standby && kill_primary_at >= 0.0 && !took_over)
    ok = false;
  return ok ? 0 : 1;
}
