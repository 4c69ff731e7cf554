// Sampled attribution of host CPU time to simulator namespaces, for the
// access path the benchmark cannot decorate (driver -> translate -> fault
// -> buddy happens inside the simulator's own calls).
//
// While armed, ITIMER_PROF delivers SIGPROF every kIntervalUs of process
// CPU time to whichever thread is running; the handler stores the stack's
// return addresses in a preallocated buffer.  Symbolization happens after
// Stop(): each address is looked up in the executable's ELF symbol table
// and its mangled name gives the enclosing namespace.  A sample is charged
// to the innermost frame that belongs to a simulator namespace; frames of
// std::, base:: and shared libraries are charged to their caller, and a
// std::function invoker to the namespace of the lambda it wraps.
#ifndef PERFBENCH_PROFILER_H_
#define PERFBENCH_PROFILER_H_

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

// Attribution categories, in report order.
inline constexpr std::array<const char*, 8> kSampleCategories = {
    "mmu", "vmem", "os", "policy", "gemini", "workload", "damon", "other"};

struct SampleReport {
  uint64_t samples = 0;
  std::array<uint64_t, kSampleCategories.size()> counts{};
};

class Profiler {
 public:
  // `exe_path` is this program's executable (for its symbol table).
  explicit Profiler(std::string exe_path);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Arm / disarm sampling; samples accumulate across Start/Stop pairs.
  void Start();
  void Stop();

  // Attributes every sample taken so far.  Call while stopped.
  SampleReport Report() const;

 private:
  std::string exe_path_;
  bool running_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROFILER_H_
