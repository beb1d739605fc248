#include "reference.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

constexpr uint32_t kKernelNodes = 100'000;
constexpr uint32_t kKernelOutDegree = 3;  // plus one ring edge per node
constexpr uint64_t kKernelSeed = 0x5eedba4c5ULL;
constexpr size_t kKernelSources = 64;
// The map's table: a power of two, 64 MiB, so that its slots, spread by
// the hash, miss the caches the way the program's graph and session state
// do. A slot is live only if it carries the current slice's stamp, so a
// slice need not clear the table.
constexpr size_t kKernelSlotBits = 22;
constexpr size_t kKernelSlots = size_t{1} << kKernelSlotBits;

// A slice may let the rest of the process use this much CPU (ms) plus
// kSlackShare of the slice's own CPU time: timer ticks, a thread finishing
// the last few microseconds of a request.
constexpr double kSlackMs = 1.0;
constexpr double kSlackShare = 0.05;

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

ReferenceKernel::ReferenceKernel() {
  std::mt19937_64 rng(kKernelSeed);
  std::uniform_int_distribution<uint32_t> node(0, kKernelNodes - 1);
  std::uniform_int_distribution<uint32_t> weight(1, 1000);
  offsets_.reserve(kKernelNodes + 1);
  targets_.reserve(static_cast<size_t>(kKernelNodes) * (kKernelOutDegree + 1));
  offsets_.push_back(0);
  for (uint32_t v = 0; v < kKernelNodes; ++v) {
    // The ring edge keeps every node reachable from every source.
    targets_.push_back((v + 1) % kKernelNodes);
    weights_.push_back(weight(rng));
    for (uint32_t e = 0; e < kKernelOutDegree; ++e) {
      targets_.push_back(node(rng));
      weights_.push_back(weight(rng));
    }
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }
  slots_.assign(kKernelSlots, MapSlot{});
  heap_.reserve(targets_.size() + 1);
}

ReferenceKernel::MapSlot& ReferenceKernel::Find(uint32_t v) {
  size_t s = (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >>
             (64 - kKernelSlotBits);
  while (slots_[s].stamp == stamp_ && slots_[s].key != v) {
    s = (s + 1) & (kKernelSlots - 1);
  }
  return slots_[s];
}

uint64_t ReferenceKernel::RunSlice(size_t i) {
  const uint32_t source = static_cast<uint32_t>(
      (i % kKernelSources) * (kKernelNodes / kKernelSources));
  if (++stamp_ == 0) {  // wrapped: no slot may look live
    slots_.assign(kKernelSlots, MapSlot{});
    stamp_ = 1;
  }
  using Entry = std::pair<uint64_t, uint32_t>;
  const auto later = std::greater<Entry>();
  heap_.clear();
  Find(source) = MapSlot{stamp_, source, 0};
  heap_.emplace_back(0, source);
  uint64_t sum = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d != Find(v).dist) continue;
    sum += d ^ v;  // v is settled at distance d
    for (uint32_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      const uint64_t nd = d + weights_[e];
      MapSlot& slot = Find(targets_[e]);
      if (slot.stamp != stamp_ || nd < slot.dist) {
        slot = MapSlot{stamp_, targets_[e], nd};
        heap_.emplace_back(nd, targets_[e]);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return sum;
}

void Reference::BeginPhase(size_t idle_points) {
  program_ms_ = 0.0;
  kernel_ms_ = 0.0;
  phase_first_ = slices();
  idle_points_ = idle_points;
  idle_seen_ = 0;
  mark_ = Clock::now();
}

void Reference::Idle(bool quiesce) {
  program_ms_ += MsBetween(mark_, Clock::now());
  ++idle_seen_;
  const size_t due =
      idle_points_ == 0
          ? 0
          : phase_first_ + (kPhaseSlices * std::min(idle_seen_, idle_points_) +
                            idle_points_ - 1) / idle_points_;
  auto behind = [&] {
    return kernel_ms_ < kShare * program_ms_ || slice_ms_.size() < due;
  };
  if (behind()) {
    if (quiesce) Quiesce();
    while (behind() && !GuardTripped()) Slice();
  }
  mark_ = Clock::now();
}

void Reference::RunAtLeast(size_t n, bool quiesce) {
  if (quiesce && slice_ms_.size() < n) Quiesce();
  while (slice_ms_.size() < n && !GuardTripped()) Slice();
  mark_ = Clock::now();
}

void Reference::Quiesce() {
  // Wait until the process uses almost no CPU over a 10 ms window (the
  // kernel books a running thread's time at scheduler ticks, so a shorter
  // window can miss a busy thread), for at most 1 s; the guard catches
  // what remains.
  for (int i = 0; i < 100; ++i) {
    const double before = ProcessCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (ProcessCpuMs() - before < 0.5) break;
  }
}

void Reference::Slice() {
  const double proc0 = ProcessCpuMs();
  const double thread0 = ThreadCpuMs();
  const Clock::time_point t0 = Clock::now();
  checksum_ += kernel_.RunSlice(slice_ms_.size());
  const Clock::time_point t1 = Clock::now();
  const double thread_ms = ThreadCpuMs() - thread0;
  const double excess = (ProcessCpuMs() - proc0) - thread_ms;
  max_excess_cpu_ms_ = std::max(max_excess_cpu_ms_, excess);
  if (excess > kSlackMs + kSlackShare * thread_ms) {
    // Some program thread ran beside the kernel. The slice is dropped, so
    // it cannot flatter the factor, and the next one waits for quiet.
    ++guard_violations_;
    Quiesce();
    return;
  }
  const double ms = MsBetween(t0, t1);
  slice_ms_.push_back(ms);
  kernel_ms_ += ms;
}

bool Reference::GuardTripped() const {
  return guard_violations_ >
         std::max(kMaxGuardViolations,
                  static_cast<size_t>(kMaxGuardShare *
                                      static_cast<double>(slice_ms_.size())));
}

double Reference::MeanSliceMs(size_t first, size_t last) const {
  last = std::min(last, slice_ms_.size());
  if (first >= last) return 0.0;
  double sum = 0.0;
  for (size_t i = first; i < last; ++i) sum += slice_ms_[i];
  return sum / static_cast<double>(last - first);
}

double Reference::FactorOver(size_t first, size_t last) const {
  const double mean = MeanSliceMs(first, last);
  return mean > 0.0 ? kReferenceSliceMs / mean : 1.0;
}

}  // namespace perfbench
