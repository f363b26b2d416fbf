// Distributed trace context: the causal identity a span carries across
// component and process boundaries.
//
// A TraceContext names one position in a causal tree: the trace it
// belongs to (one scheduler decision and everything it causes) and the
// span that is currently open. ProfileSpan reads the thread's current
// context to parent itself, allocates a fresh span id, and installs
// itself as current for its scope; the RPC client stamps the current
// context into the request envelope, and the RPC server installs the
// envelope's context around the handler — so a client-side call span
// in one process and the server-side handler span in another share one
// trace_id and a parent/child span edge, and `trace_tool merge` can
// fuse their per-process trace files into a single timeline with
// cross-process flow arrows.
//
// Ids are deterministic: trace ids derive from (seed, interval) and
// span ids from a per-writer SplitMix64 stream forked from the job
// seed — no wall clock, no global RNG — so the id graph of a seeded
// run replays bit-for-bit (timestamps are the only wall-clock field in
// a trace file). Context is thread-local and does not cross threads;
// the decision-path inner loops run contextless by design.
#pragma once

#include <cstdint>

namespace parcae::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no active trace
  // Id of the currently open span (the parent of any span opened under
  // this context). 0 = root: children record parent_span_id 0.
  std::uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// The calling thread's current context ({0, 0} when none is active).
const TraceContext& current_trace_context();

// RAII: installs `context` as the thread's current context, restoring
// the previous one on destruction. Used by the RPC server around
// handlers (explicit context from the wire) and by executor backends
// to root a whole interval under one trace id.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

namespace detail {
// Swaps the thread's current context, returning the previous one
// (ProfileSpan's non-RAII install path; prefer TraceContextScope).
TraceContext exchange_current(TraceContext context);
}  // namespace detail

// SplitMix64 step: the id-derivation primitive (also Rng's seeding
// scheme). Pure function, so id streams are reproducible anywhere.
std::uint64_t splitmix64(std::uint64_t& state);

// Deterministic trace id for one scheduler interval: a SplitMix64 hash
// of (seed, interval), never 0.
std::uint64_t derive_trace_id(std::uint64_t seed, std::uint64_t interval);

// Deterministic per-component span-id stream forked from the job seed
// and a component tag (client vs hub writers get independent streams).
std::uint64_t fork_trace_seed(std::uint64_t seed, std::uint64_t component);

}  // namespace parcae::obs
