// Reference kernel and speed normalisation.
//
// The machine this benchmark runs on changes speed by tens of percent over
// seconds to minutes. Every time the benchmark reports is therefore scaled
// to "reference speed": while the program under test is idle, the run
// interleaves slices of a fixed kernel that belongs to the benchmark and
// calls nothing in the program, and each raw time is multiplied by
//
//     kReferenceSliceMs / (mean kernel slice time).
//
// The mean is taken over the slices run within the phase the time belongs
// to (the main phase, or one epilogue), at least kPhaseSlices of them;
// never per operation.
//
// The kernel is a single-threaded Dijkstra with a hash map and a binary
// heap over a fixed synthetic graph of 100K nodes: the same kind of
// memory-bound work as the program's expansion loop, so both slow down
// together when the machine does. Its hash map and heap are allocated
// once and reused, so a slice never calls the allocator: its time must
// not depend on the state the program left the heap in.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Mean wall time of one kernel slice on the reference machine, in ms:
/// the median `mean_slice_ms` of ten search runs (see README.md).
inline constexpr double kReferenceSliceMs = 65.0;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The fixed reference workload. Its graph is generated from a constant
/// seed, never from the run's seed, so every run times the same work.
class ReferenceKernel {
 public:
  ReferenceKernel();

  /// One slice: a full single-source Dijkstra from the i-th source.
  /// Returns a checksum of the distances so the work cannot be elided.
  uint64_t RunSlice(size_t i);

 private:
  /// One slot of the distance map (open addressing, linear probing).
  struct MapSlot {
    uint32_t stamp = 0;  ///< live in the slice whose stamp_ this is
    uint32_t key = 0;
    uint64_t dist = 0;
  };
  /// The slot of node `v`: its own if live, else the free one to take.
  MapSlot& Find(uint32_t v);

  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> weights_;
  std::vector<MapSlot> slots_;
  uint32_t stamp_ = 0;
  std::vector<std::pair<uint64_t, uint32_t>> heap_;  // a binary min-heap
};

/// Interleaves kernel slices with the program's work and turns the
/// kernel's timings into the run's normalisation factor.
///
/// Callers mark the points where the program is idle with Idle(); the
/// kernel then runs until its time reaches kShare of the program time seen
/// since the phase began, and at least until the phase's share of
/// kPhaseSlices is due. Each slice is guarded: the process's CPU
/// time may grow by no more than the kernel thread's own CPU time plus a
/// small slack, otherwise some program thread was busy and would have
/// slowed the kernel, which would flatter the program's normalised times.
/// Such a slice is dropped. One thread finishing a request late (its vCPU
/// descheduled by the host while the benchmark waited for quiet) trips a
/// slice now and then; a program that leaves threads busy trips many, and
/// the guard then fails the run.
class Reference {
 public:
  /// Kernel time as a share of the program time it is interleaved with.
  static constexpr double kShare = 0.2;
  /// Fewest slices a phase's factor is taken over.
  static constexpr size_t kPhaseSlices = 20;
  /// Dropped slices a run may have: this many, or this share of its
  /// slices if that is more.
  static constexpr size_t kMaxGuardViolations = 2;
  static constexpr double kMaxGuardShare = 0.05;

  Reference() = default;

  /// Counts the time since the previous mark as program time and runs
  /// slices until the kernel has caught up. `quiesce` first waits (up to a
  /// bound) for other threads of the process to go idle; pass it whenever
  /// program threads other than the caller exist.
  void Idle(bool quiesce);

  /// Starts a phase that will call Idle() `idle_points` times. From here
  /// on the kernel's share is counted within the phase, and the phase's
  /// first kPhaseSlices slices are spread evenly over its idle points, so
  /// the phase's factor samples the same stretch of time as its operations
  /// rather than the time after them.
  void BeginPhase(size_t idle_points);

  /// Restarts the program-time clock without counting the elapsed time
  /// (for untimed work such as output checks).
  void Mark() { mark_ = Clock::now(); }

  /// Runs slices until at least `n` have run in total.
  void RunAtLeast(size_t n, bool quiesce);

  /// Reference time over this run's time: multiply raw times by it.
  double Factor() const { return FactorOver(0, slices()); }
  /// The same over slices [first, last) only.
  double FactorOver(size_t first, size_t last) const;

  size_t slices() const { return slice_ms_.size(); }
  double mean_slice_ms() const { return MeanSliceMs(0, slices()); }
  double MeanSliceMs(size_t first, size_t last) const;
  size_t guard_violations() const { return guard_violations_; }
  /// More slices were dropped than a quiet program explains: the run's
  /// times cannot be trusted, and no further slices run.
  bool GuardTripped() const;
  double max_excess_cpu_ms() const { return max_excess_cpu_ms_; }

 private:
  void Slice();
  /// Waits until the process's other threads are idle (bounded).
  static void Quiesce();

  ReferenceKernel kernel_;
  Clock::time_point mark_ = Clock::now();
  // Within the current phase.
  double program_ms_ = 0.0;
  double kernel_ms_ = 0.0;
  size_t phase_first_ = 0;
  size_t idle_points_ = 0;
  size_t idle_seen_ = 0;
  std::vector<double> slice_ms_;
  uint64_t checksum_ = 0;
  size_t guard_violations_ = 0;
  double max_excess_cpu_ms_ = 0.0;
};

/// Process CPU time (all threads, user + system) in ms.
double ProcessCpuMs();

/// Peak resident set (VmHWM) in MiB, 0 if unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
