// Measurement plumbing of the end-to-end benchmark: benchmark-side spans
// around the library's public calls, the correctness gate, the
// simulated-statistics digest and the per-pass outputs every workload
// returns. Nothing here reaches into the library; it only times and checks
// what the public entry points return.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pfar::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
/// Nearest-rank percentile (p in (0, 100]) of integer samples.
long long percentile(std::vector<long long> values, int p);

/// In-memory span log. Spans nest by a stack: a span opened while another
/// is open becomes its child. A layer's self time is the sum over its
/// spans of (duration - children's durations). Every span carries the
/// phase it ran in (a setup repetition, a timed pass or the standalone
/// probe) so per-layer figures can be taken per pass. Disabled logs cost
/// one branch per call and never read the clock.
class SpanLog {
 public:
  struct Span {
    std::string layer;
    int phase = 0;
    int parent = -1;
    double start_s = 0.0;  // seconds since the log was created
    double dur_s = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_phase(int phase) { phase_ = phase; }

  int open(const char* layer);
  void close(int id);
  /// Records a child of the innermost open span whose duration was
  /// measured elsewhere (the planner observer's phase timers).
  void add_child(const char* layer, double dur_s);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per layer within one phase.
  std::map<std::string, double> self_seconds(int phase) const;
  /// Summed duration of the phase's root spans (the part of a pass the
  /// layers account for).
  double root_seconds(int phase) const;
  /// Writes the spans as JSON lines ({"layer","phase","parent","start_s",
  /// "dur_s"}). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  /// RAII span; a no-op on a disabled log.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer)
        : log_(log), id_(log.enabled_ ? log.open(layer) : -1) {}
    ~Scope() {
      if (id_ >= 0) log_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

 private:
  bool enabled_;
  Clock::time_point t0_;
  int phase_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Phases of a traced run: setup repetitions are negative, timed passes
/// count up from 0, the standalone adapt probe has its own.
inline int setup_phase(int rep) { return -1 - rep; }
inline constexpr int kProbePhase = 1 << 20;

/// Correctness gate: every check the benchmark makes goes through here.
/// A failed check is counted (it makes the run's `failed` and `correct`
/// fields report it, and the process exit nonzero) and the first few are
/// described on stderr.
class Gate {
 public:
  /// Returns `ok`; counts and reports a violation otherwise.
  bool check(bool ok, const std::string& what);
  int violations() const { return violations_; }

 private:
  int violations_ = 0;
};

/// FNV-1a 64 over a stream of integers and exact doubles: the digest of a
/// pass's simulated outputs. Equal digests mean bit-identical simulated
/// statistics.
class Digest {
 public:
  void add(long long v);
  void add(double v);
  void add(const std::vector<long long>& vs) {
    add(static_cast<long long>(vs.size()));
    for (long long v : vs) add(v);
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one timed pass of a workload produced, in simulated terms. Every
/// field is deterministic given the seed.
struct PassOutput {
  long long attempted = 0;  // operations: collective runs, jobs, replays
  long long failed = 0;     // refused jobs, incorrect runs, gate failures
  long long elements = 0;   // collective elements reduced
  long long cycles = 0;     // simulated cycles the elements took
  long long span_cycles = 0;  // simulated makespan / time to epoch
  long long fabric_flits = 0;  // collective flits delivered on links
  long long ops = 0;           // completed operations (latency samples)
  std::vector<long long> op_latency;  // per-operation simulated cycles
  std::vector<double> bw_ratio;       // simulated / Algorithm 1, per plan
  std::map<std::string, double> layer_counts;  // per-layer counters
  Digest digest;
};

/// Run-time options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      // self-test sizes
  bool inject = false;    // deliberately corrupt one gated quantity
  int threads = 1;        // planner + shard threads (digest must not care)
  int setup_reps = 3;
};

/// A workload: set-up (plans, configs, warm-up) repeated for `setup_s`,
/// then timed passes over a fixed, seeded set of simulated operations.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(SpanLog& spans) = 0;
  virtual PassOutput pass(SpanLog& spans, Gate& gate) = 0;
  /// Traced runs only: extra measurements outside the timed passes.
  virtual void traced_extras(SpanLog&, Gate&, PassOutput&) {}
};

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace pfar::perfbench
