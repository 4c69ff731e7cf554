#include "profiler.h"

#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/check.h"

namespace perfbench {

namespace {

constexpr long kIntervalUs = 1000;
constexpr int kMaxDepth = 48;
constexpr size_t kMaxSamples = size_t{1} << 15;
// Category index for frames that are charged to their caller.
constexpr int kCharged = -1;
constexpr int kOther = static_cast<int>(kSampleCategories.size()) - 1;

struct Sample {
  uint32_t depth;
  uintptr_t pcs[kMaxDepth];
};

// Signal-handler state: the handler may only touch preallocated memory
// and lock-free atomics.
std::unique_ptr<Sample[]> g_samples;
std::atomic<size_t> g_next{0};
std::atomic<size_t> g_done{0};
bool g_instance = false;

void OnSigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    void* frames[kMaxDepth + 4];
    const int n = backtrace(frames, kMaxDepth + 4);
    const auto* uc = static_cast<const ucontext_t*>(context);
    const auto ip = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    // The frames before the interrupted instruction are this handler and
    // the signal trampoline.
    int first = 0;
    while (first < n && reinterpret_cast<uintptr_t>(frames[first]) != ip) {
      ++first;
    }
    Sample& s = g_samples[slot];
    s.pcs[0] = ip;
    uint32_t depth = 1;
    for (int i = first + 1; i < n && depth < kMaxDepth; ++i) {
      s.pcs[depth++] = reinterpret_cast<uintptr_t>(frames[i]);
    }
    s.depth = depth;
  }
  g_done.fetch_add(1, std::memory_order_release);
  errno = saved_errno;
}

int CategoryOfNamespace(std::string_view ns) {
  static constexpr std::pair<std::string_view, int> kMap[] = {
      {"mmu", 0},    {"vmem", 1},     {"osim", 2},  {"policy", 3},
      {"gemini", 4}, {"workload", 5}, {"damon", 6},
  };
  for (const auto& [name, category] : kMap) {
    if (ns == name) {
      return category;
    }
  }
  if (ns == "std" || ns == "__gnu_cxx" || ns == "base") {
    return kCharged;
  }
  return kOther;
}

// Reads the <length><identifier> at `p` of a mangled name, skipping
// nested-name qualifiers; returns "std" for a std:: substitution.
std::string_view SourceName(std::string_view m, size_t p) {
  while (p < m.size() && std::strchr("KVrRO", m[p]) != nullptr) {
    ++p;
  }
  if (p < m.size() && m[p] == 'S') {
    return "std";
  }
  size_t len = 0;
  while (p < m.size() && m[p] >= '0' && m[p] <= '9') {
    len = len * 10 + static_cast<size_t>(m[p] - '0');
    ++p;
  }
  if (len == 0 || p + len > m.size()) {
    return {};
  }
  return m.substr(p, len);
}

// Category of an Itanium-mangled function name by its outermost
// namespace.  Lambdas ("_ZZN<ns>...") belong to their enclosing function;
// a std:: template instantiated over a simulator lambda (std::function
// invokers, algorithms with a lambda comparator) belongs to the lambda.
int CategoryOfSymbol(std::string_view m) {
  if (m.substr(0, 2) != "_Z") {
    return kOther;  // C symbol of the benchmark itself (main)
  }
  size_t p = 2;
  if (p < m.size() && m[p] == 'Z') {
    ++p;
  }
  if (p < m.size() && m[p] == 'L') {
    ++p;
  }
  std::string_view ns;
  if (p < m.size() && m[p] == 'N') {
    ns = SourceName(m, p + 1);
  } else if (p < m.size() && m[p] == 'S') {
    ns = "std";
  }
  const int category = CategoryOfNamespace(ns);
  if (category != kCharged) {
    return ns.empty() ? kOther : category;
  }
  for (size_t at = m.find("ZN", 2); at != std::string_view::npos;
       at = m.find("ZN", at + 2)) {
    const int inner = CategoryOfNamespace(SourceName(m, at + 2));
    if (inner != kCharged && inner != kOther) {
      return inner;
    }
  }
  return kCharged;
}

struct Symbol {
  uintptr_t begin;
  uintptr_t end;
  int category;
};

uintptr_t MainProgramBias() {
  uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* out) {
        *static_cast<uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first object is the main program
      },
      &bias);
  return bias;
}

template <typename T>
bool ReadAt(const std::vector<char>& data, uint64_t offset, T* out) {
  if (offset > data.size() || data.size() - offset < sizeof(T)) {
    return false;
  }
  std::memcpy(out, data.data() + offset, sizeof(T));
  return true;
}

// Function symbols of the executable's .symtab, relocated to their
// run-time addresses and sorted.
std::vector<Symbol> LoadSymbols(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SIM_CHECK_MSG(in.good(), "cannot open %s for symbols", path.c_str());
  const std::vector<char> data((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  Elf64_Ehdr eh;
  SIM_CHECK_MSG(ReadAt(data, 0, &eh) &&
                    std::memcmp(eh.e_ident, ELFMAG, SELFMAG) == 0 &&
                    eh.e_ident[EI_CLASS] == ELFCLASS64,
                "%s is not a 64-bit ELF file", path.c_str());
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  for (size_t i = 0; i < sections.size(); ++i) {
    SIM_CHECK(ReadAt(data, eh.e_shoff + i * sizeof(Elf64_Shdr), &sections[i]));
  }
  const uintptr_t bias = MainProgramBias();
  std::vector<Symbol> symbols;
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) {
      continue;
    }
    const Elf64_Shdr& strtab = sections[sh.sh_link];
    for (uint64_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size;
         off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym;
      SIM_CHECK(ReadAt(data, sh.sh_offset + off, &sym));
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
          sym.st_size == 0 || sym.st_name >= strtab.sh_size ||
          strtab.sh_offset + sym.st_name >= data.size()) {
        continue;
      }
      const char* name = data.data() + strtab.sh_offset + sym.st_name;
      const size_t max_len = data.size() - (strtab.sh_offset + sym.st_name);
      symbols.push_back(Symbol{bias + sym.st_value,
                               bias + sym.st_value + sym.st_size,
                               CategoryOfSymbol(std::string_view(
                                   name, strnlen(name, max_len)))});
    }
  }
  SIM_CHECK_MSG(!symbols.empty(), "%s has no symbol table", path.c_str());
  std::sort(symbols.begin(), symbols.end(),
            [](const Symbol& a, const Symbol& b) { return a.begin < b.begin; });
  return symbols;
}

int CategoryOfPc(const std::vector<Symbol>& symbols, uintptr_t pc) {
  auto it = std::upper_bound(
      symbols.begin(), symbols.end(), pc,
      [](uintptr_t value, const Symbol& s) { return value < s.begin; });
  if (it == symbols.begin()) {
    return kCharged;
  }
  --it;
  return pc < it->end ? it->category : kCharged;  // else a shared library
}

}  // namespace

Profiler::Profiler(std::string exe_path) : exe_path_(std::move(exe_path)) {
  SIM_CHECK_MSG(!g_instance, "one Profiler at a time");
  g_instance = true;
  g_samples = std::make_unique<Sample[]>(kMaxSamples);
  g_next = 0;
  g_done = 0;
  // The first backtrace() loads the unwinder, which is not safe inside a
  // signal handler; take it here.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action {};
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  SIM_CHECK(sigaction(SIGPROF, &action, nullptr) == 0);
}

Profiler::~Profiler() {
  Stop();
  // A SIGPROF still pending must not reach the default action, which
  // terminates the process.
  signal(SIGPROF, SIG_IGN);
  g_instance = false;
}

void Profiler::Start() {
  if (running_) {
    return;
  }
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  SIM_CHECK(setitimer(ITIMER_PROF, &timer, nullptr) == 0);
  running_ = true;
}

void Profiler::Stop() {
  if (!running_) {
    return;
  }
  itimerval off{};
  SIM_CHECK(setitimer(ITIMER_PROF, &off, nullptr) == 0);
  running_ = false;
  // Let a handler already running on another thread finish its sample.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (g_done.load(std::memory_order_acquire) <
             g_next.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

SampleReport Profiler::Report() const {
  SIM_CHECK(!running_);
  const std::vector<Symbol> symbols = LoadSymbols(exe_path_);
  SampleReport report;
  // Samples beyond the buffer are not kept (the buffer holds over two
  // minutes of CPU time at the kernel's tick rate).
  const size_t kept =
      std::min(g_done.load(std::memory_order_acquire), kMaxSamples);
  report.samples = kept;
  for (size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    int category = kOther;
    for (uint32_t d = 0; d < s.depth; ++d) {
      // Caller frames hold return addresses: look up the call instruction.
      const uintptr_t pc = d == 0 ? s.pcs[0] : s.pcs[d] - 1;
      const int c = CategoryOfPc(symbols, pc);
      if (c != kCharged) {
        category = c;
        break;
      }
    }
    ++report.counts[static_cast<size_t>(category)];
  }
  return report;
}

}  // namespace perfbench
