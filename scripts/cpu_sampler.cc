// CPU stack sampler, loaded into one process with LD_PRELOAD (see
// scripts/cpu_sample.sh, which runs it and symbolizes the output).
//
// It arms setitimer(ITIMER_PROF), so the process receives SIGPROF once per
// millisecond of its own CPU time, on a thread that is running. The handler
// records that thread's stack (glibc backtrace(), which unwinds through the
// signal frame with the binaries' unwind tables, so Release builds without
// frame pointers sample whole stacks) into a preallocated buffer. At exit
// the process writes every sample and its /proc/self/maps to
// $TMPDIR/ips_cpu_sample.<pid> (/tmp when TMPDIR is unset). Nothing outside
// the sampled process is traced or configured.
//
// Caveat: backtrace() takes the loader's lock while it looks up unwind
// tables, so a sample that lands inside dlopen or a C++ throw can block;
// sample programs that do neither in their hot loop.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kMaxDepth = 64;
constexpr int kIntervalUs = 1000;
/// Buffer words: each sample is its depth followed by its pcs, so 2M words
/// (16 MB of address space, touched only as filled) hold ~60k deep samples.
constexpr size_t kBufferWords = size_t{1} << 21;

uint64_t* g_buffer = nullptr;
std::atomic<size_t> g_used{0};
std::atomic<uint64_t> g_dropped{0};

void OnProf(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  void* frames[kMaxDepth + 2];
  const int n = backtrace(frames, kMaxDepth + 2);
  // Skip the handler's own frames: start at the interrupted pc.
  int first = n < 2 ? n : 2;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(context);
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  for (int i = 0; i < n; ++i) {
    if (reinterpret_cast<uintptr_t>(frames[i]) == pc) {
      first = i;
      break;
    }
  }
#else
  (void)context;
#endif
  const size_t depth = static_cast<size_t>(n - first);
  const size_t at = g_used.fetch_add(depth + 1, std::memory_order_relaxed);
  if (depth == 0 || at + depth + 1 > kBufferWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_buffer[at] = depth;
    for (size_t i = 0; i < depth; ++i) {
      g_buffer[at + 1 + i] = reinterpret_cast<uintptr_t>(frames[first + i]);
    }
  }
  errno = saved_errno;
}

void Dump() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  const char* dir = std::getenv("TMPDIR");
  char path[512];
  std::snprintf(path, sizeof(path), "%s/ips_cpu_sample.%d",
                dir != nullptr && *dir != '\0' ? dir : "/tmp",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  const size_t used = std::min(g_used.load(), kBufferWords);
  std::fprintf(out, "dropped %llu\n",
               static_cast<unsigned long long>(g_dropped.load()));
  for (size_t at = 0; at < used;) {
    const size_t depth = g_buffer[at];
    // A reservation that overflowed the buffer left the rest unwritten.
    if (depth == 0 || at + 1 + depth > used) break;
    std::fputs("s", out);
    for (size_t i = 0; i < depth; ++i) {
      std::fprintf(out, " %llx",
                   static_cast<unsigned long long>(g_buffer[at + 1 + i]));
    }
    std::fputs("\n", out);
    at += depth + 1;
  }
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[1024];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fprintf(out, "m %s", line);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kBufferWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_buffer = static_cast<uint64_t*>(mem);
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action{};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  std::atexit(Dump);
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value.tv_usec = kIntervalUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace
