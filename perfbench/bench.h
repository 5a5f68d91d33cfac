// Shared pieces of the benchmark driver: measurement primitives (wall
// clock, user-space instruction counter, peak RSS, minor faults, spans),
// the metric sink the workloads report into, and their entry point. See
// perfbench/README.md for what each workload and metric is.
#ifndef DATALOG_EQ_PERFBENCH_BENCH_H_
#define DATALOG_EQ_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// One reported metric: a value and its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main(): the metrics of the mode it
/// ran in, plus the operation counts and correctness verdict.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// One line per problem found by the output checks.
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Median of `values` (which must be non-empty).
double Median(std::vector<double> values);

/// Mean of `values` (which must be non-empty). Batch times are averaged
/// over a run's rounds: there are only a few of them, each several
/// seconds long, and this host alternates between a fast and a slower
/// state for seconds at a time, so the mean over all measured time is
/// steadier than the median of a few rounds.
double Mean(const std::vector<double>& values);

/// Loop control for repeating a short measurement so that its median is
/// steady: at least `min_reps` repetitions, then more until `min_seconds`
/// have passed (at most kMaxReps in all).
class Repeats {
 public:
  Repeats(int min_reps, double min_seconds)
      : min_reps_(min_reps), min_seconds_(min_seconds) {}

  bool More() {
    const double elapsed_s = MsSince(start_) / 1000.0;
    return done_++ < min_reps_ ||
           (elapsed_s < min_seconds_ && done_ <= kMaxReps);
  }

 private:
  static constexpr int kMaxReps = 1001;
  const int min_reps_;
  const double min_seconds_;
  const Clock::time_point start_ = Clock::now();
  int done_ = 0;
};

/// One set-up window: at least 5 set-ups and at least 0.25 s.
inline Repeats SetupRepeats() { return Repeats(5, 0.25); }

/// Runs `check` at least once and for at least 0.5 s, appends the wall
/// time of each run in ms to `samples`, and returns the last result.
/// Verification calls can be short (a few ms on corpus-mix), and this
/// host alternates between a fast and a ~1.8x slower state for seconds
/// at a time, so rounds time verification in two windows, after the
/// 1-thread and after the 4-thread batch, and keep the fastest run.
template <typename Fn>
auto TimeWindow(std::vector<double>* samples, Fn&& check) {
  Repeats reps(1, 0.5);
  reps.More();
  Clock::time_point start = Clock::now();
  auto result = check();
  samples->push_back(MsSince(start));
  while (reps.More()) {
    start = Clock::now();
    result = check();
    samples->push_back(MsSince(start));
  }
  return result;
}

/// Counts user-space instructions retired by this process and every
/// thread it starts after construction (perf_event_open with inherit).
/// Counts of a thread are folded in when it exits, so read only after
/// the threads of the measured call have been joined. Construction
/// exits the process with a message when the counter cannot be opened:
/// a benchmark that silently reports zero instructions is worse than
/// none.
class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  /// Instructions counted since construction.
  std::uint64_t Read() const;

 private:
  int fd_ = -1;
};

/// Resets the process's peak-RSS mark to the current RSS (after handing
/// freed heap back to the system), so PeakRssMb() then reports the peak
/// of what runs in between. Exits the process when the kernel refuses.
void ResetPeakRss();
double PeakRssMb();

/// Minor page faults of the calling thread so far.
std::uint64_t ThreadMinorFaults();

/// One traced call or stage: spans of one run share a Tracer, and
/// `parent` indexes the span that caused this one (-1 for a root).
struct Span {
  const char* name;  // a string literal
  std::uint64_t instance;
  double start_ms;
  double end_ms;
  long parent;
};

/// What one layer's traced calls add up to.
struct LayerTotals {
  std::uint64_t calls = 0;
  double ms = 0;
  std::uint64_t instructions = 0;
  std::uint64_t minflt = 0;
};

/// In-memory spans, written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(InstructionCounter& counter)
      : counter_(counter), origin_(Clock::now()) {}

  long Open(const char* name, std::uint64_t instance, long parent) {
    spans_.push_back(Span{name, instance, Now(), 0, parent});
    return static_cast<long>(spans_.size()) - 1;
  }
  /// Ends `span` and returns its duration in ms.
  double Close(long span) {
    spans_[span].end_ms = Now();
    return spans_[span].end_ms - spans_[span].start_ms;
  }

  /// Runs `fn` as one call into a layer: a child span of `parent`, with
  /// its wall time, instructions and minor faults charged to `totals`.
  /// The span covers `fn` alone; the bookkeeping around it (the span
  /// record and the counter and fault reads) is timed into overhead_ms().
  template <typename Fn>
  auto Call(LayerTotals& totals, const char* name, std::uint64_t instance,
            long parent, Fn&& fn) {
    const double entered = Now();
    const long span = Open(name, instance, parent);
    const std::uint64_t faults = ThreadMinorFaults();
    const std::uint64_t instructions = counter_.Read();
    const double start = Now();
    auto result = fn();
    const double end = Now();
    totals.instructions += counter_.Read() - instructions;
    totals.minflt += ThreadMinorFaults() - faults;
    spans_[span].start_ms = start;
    spans_[span].end_ms = end;
    totals.ms += end - start;
    ++totals.calls;
    overhead_ms_ += (start - entered) + (Now() - end);
    return result;
  }

  /// Wall time the tracer spent on its own bookkeeping in Call().
  double overhead_ms() const { return overhead_ms_; }

  /// Writes one JSON object per span and line; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  double Now() const { return MsSince(origin_); }

  InstructionCounter& counter_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  double overhead_ms_ = 0;
};

/// The workload entry point: fills `report` for the mode in `config`
/// (end-to-end metrics when !config.trace, per-layer ones otherwise).
void RunCorpusWorkload(const Config& config, InstructionCounter& counter,
                       Report* report);

}  // namespace perfbench

#endif  // DATALOG_EQ_PERFBENCH_BENCH_H_
