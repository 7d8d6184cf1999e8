#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::obs {

namespace {

// ---------------------------------------------------------------------------
// Signal-handler-visible state. Everything the SIGPROF handler touches lives
// here, is preallocated before the handler is installed, and is accessed
// with async-signal-safe patterns only: plain loads/stores of sig_atomic_t,
// relaxed/acq-rel atomics, and writes into fixed arrays. No locks, no
// allocation, no libc calls beyond backtrace().
// ---------------------------------------------------------------------------

struct Sample {
  int32_t depth = 0;
  void* pcs[Profiler::kMaxFrames];
};

struct ThreadRing {
  // Single-producer (the owning thread, inside the handler) / single-
  // consumer (the collector). head is released by the producer after the
  // slot is fully written; tail is released by the consumer after the slot
  // is fully read.
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  Sample samples[Profiler::kRingCapacity];
};

// Ring pool: heap-allocated once on the first Start() (never from the
// handler) and leaked — cached thread-local pointers must stay valid for
// the life of every thread.
ThreadRing* g_rings = nullptr;
std::atomic<uint32_t> g_ring_claim{0};
std::atomic<uint64_t> g_unclaimed_drops{0};  // threads beyond kMaxThreads

// Armed flag read by the handler: a SIGPROF that races a concurrent Stop()
// (the timer fires once more while being disarmed) must not touch rings
// that a final drain is consuming.
std::atomic<bool> g_armed{false};

// Per-thread claimed ring. __thread (not thread_local) keeps access to a
// plain TLS load with no lazy-init guard — safe inside the handler.
__thread ThreadRing* t_ring = nullptr;
__thread volatile sig_atomic_t t_in_handler = 0;

void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ucontext*/) {
  t_in_handler = 1;
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    ThreadRing* ring = t_ring;
    if (ring == nullptr) {
      const uint32_t index =
          g_ring_claim.fetch_add(1, std::memory_order_relaxed);
      if (index < static_cast<uint32_t>(Profiler::kMaxThreads)) {
        ring = &g_rings[index];
        t_ring = ring;
      }
    }
    if (ring == nullptr) {
      g_unclaimed_drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint32_t head = ring->head.load(std::memory_order_relaxed);
      const uint32_t tail = ring->tail.load(std::memory_order_acquire);
      if (head - tail >=
          static_cast<uint32_t>(Profiler::kRingCapacity)) {
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        Sample& slot =
            ring->samples[head %
                          static_cast<uint32_t>(Profiler::kRingCapacity)];
        // backtrace() walks via libgcc's unwinder. The unwinder is forced
        // to load (and its one-time allocation done) by the warm-up call in
        // Start(), so this call allocates nothing.
        int depth = backtrace(slot.pcs, Profiler::kMaxFrames);
        // Frames 0..1 are this handler and the kernel's signal trampoline;
        // the application stack starts below them.
        constexpr int kSkip = 2;
        if (depth > kSkip) {
          std::memmove(slot.pcs, slot.pcs + kSkip,
                       static_cast<size_t>(depth - kSkip) * sizeof(void*));
          depth -= kSkip;
        }
        slot.depth = depth;
        ring->head.store(head + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
  t_in_handler = 0;
}

// ---------------------------------------------------------------------------
// Collector-side state (ordinary thread context; normal locking rules).
// ---------------------------------------------------------------------------

struct StackKey {
  std::vector<void*> pcs;  // leaf first, as captured
  bool operator<(const StackKey& other) const { return pcs < other.pcs; }
};

struct SessionState {
  std::mutex mutex;  // guards everything below
  bool running = false;
  int hz = 0;
  std::chrono::steady_clock::time_point started_at;
  std::map<StackKey, uint64_t> stacks;  // aggregated sample counts
  uint64_t samples = 0;

  std::thread collector;
  std::mutex collector_mutex;
  std::condition_variable collector_cv;
  bool collector_stop = false;

  struct sigaction previous_action;
  struct itimerval previous_timer;
};

SessionState& Session() {
  static SessionState* state = new SessionState;  // leaked; see Registry
  return *state;
}

// Drains every claimed ring into the aggregate map. Caller holds
// Session().mutex (or has exclusive access via the joined collector).
void DrainRings(SessionState* session) {
  const uint32_t claimed =
      std::min(g_ring_claim.load(std::memory_order_relaxed),
               static_cast<uint32_t>(Profiler::kMaxThreads));
  for (uint32_t r = 0; r < claimed; ++r) {
    ThreadRing& ring = g_rings[r];
    const uint32_t head = ring.head.load(std::memory_order_acquire);
    uint32_t tail = ring.tail.load(std::memory_order_relaxed);
    while (tail != head) {
      const Sample& slot =
          ring.samples[tail % static_cast<uint32_t>(Profiler::kRingCapacity)];
      if (slot.depth > 0) {
        StackKey key;
        key.pcs.assign(slot.pcs, slot.pcs + slot.depth);
        ++session->stacks[key];
        ++session->samples;
      }
      ++tail;
    }
    ring.tail.store(tail, std::memory_order_release);
  }
}

uint64_t TotalDropped() {
  uint64_t dropped = g_unclaimed_drops.load(std::memory_order_relaxed);
  if (g_rings != nullptr) {
    const uint32_t claimed =
        std::min(g_ring_claim.load(std::memory_order_relaxed),
                 static_cast<uint32_t>(Profiler::kMaxThreads));
    for (uint32_t r = 0; r < claimed; ++r) {
      dropped += g_rings[r].dropped.load(std::memory_order_relaxed);
    }
  }
  return dropped;
}

void CollectorLoop(SessionState* session) {
  // Drain cadence well under ring capacity / hz so a busy thread's ring
  // (512 slots at 99Hz ≈ 5s to fill) never wraps between visits.
  constexpr auto kDrainInterval = std::chrono::milliseconds(50);
  std::unique_lock<std::mutex> lock(session->collector_mutex);
  while (!session->collector_stop) {
    session->collector_cv.wait_for(lock, kDrainInterval);
    if (session->collector_stop) break;
    lock.unlock();
    {
      std::lock_guard<std::mutex> state_lock(session->mutex);
      DrainRings(session);
    }
    lock.lock();
  }
}

// The executable's full symbol table (.symtab), for the functions dladdr
// cannot name because -rdynamic exports only external symbols: lambdas,
// static and anonymous-namespace functions. That is where the thread pool
// runs (a ParallelFor body is a lambda), so without it every sample of a
// pool thread would end in raw addresses. Empty if the file has no
// .symtab (a stripped binary) or cannot be read.
class ExeSymbols {
 public:
  ExeSymbols() {
    std::ifstream file("/proc/self/exe", std::ios::binary);
    const auto read_at = [&file](uint64_t offset, void* dst, size_t bytes) {
      file.seekg(static_cast<std::streamoff>(offset));
      file.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
      return file.good();
    };
    Elf64_Ehdr header;
    if (!read_at(0, &header, sizeof(header)) ||
        std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
        header.e_ident[EI_CLASS] != ELFCLASS64 ||
        header.e_shentsize != sizeof(Elf64_Shdr)) {
      return;
    }
    std::vector<Elf64_Shdr> sections(header.e_shnum);
    if (!read_at(header.e_shoff, sections.data(),
                 sections.size() * sizeof(Elf64_Shdr))) {
      return;
    }
    for (const Elf64_Shdr& section : sections) {
      if (section.sh_type != SHT_SYMTAB || section.sh_link >= sections.size()) {
        continue;
      }
      const Elf64_Shdr& strings = sections[section.sh_link];
      std::vector<Elf64_Sym> symbols(section.sh_size / sizeof(Elf64_Sym));
      names_.resize(strings.sh_size);
      if (!read_at(section.sh_offset, symbols.data(),
                   symbols.size() * sizeof(Elf64_Sym)) ||
          !read_at(strings.sh_offset, names_.data(), names_.size())) {
        functions_.clear();
        return;
      }
      for (const Elf64_Sym& symbol : symbols) {
        if (ELF64_ST_TYPE(symbol.st_info) == STT_FUNC && symbol.st_size > 0 &&
            symbol.st_name < names_.size()) {
          functions_.push_back({symbol.st_value,
                                symbol.st_value + symbol.st_size,
                                symbol.st_name});
        }
      }
    }
    std::sort(functions_.begin(), functions_.end(),
              [](const Function& a, const Function& b) {
                return a.begin < b.begin;
              });
    // The main program is the first object dl_iterate_phdr reports; its
    // dlpi_addr is the load bias of a position-independent executable.
    dl_iterate_phdr(
        [](dl_phdr_info* info, size_t, void* bias) {
          *static_cast<uintptr_t*>(bias) = info->dlpi_addr;
          return 1;
        },
        &bias_);
  }

  // The mangled name of the function holding `pc`, or nullptr.
  const char* Find(uintptr_t pc) const {
    const uintptr_t address = pc - bias_;
    auto it = std::upper_bound(
        functions_.begin(), functions_.end(), address,
        [](uintptr_t a, const Function& f) { return a < f.begin; });
    if (it == functions_.begin() || address >= (--it)->end) return nullptr;
    return names_.data() + it->name;
  }

 private:
  struct Function {
    uintptr_t begin;
    uintptr_t end;
    size_t name;  // offset into names_
  };
  std::vector<Function> functions_;
  std::string names_;
  uintptr_t bias_ = 0;
};

// Symbolizes one program counter. `caller_frame` (a return address) is
// adjusted back by one byte so calls at the end of a function attribute to
// the caller, not the next symbol.
std::string SymbolizePc(void* pc, bool is_leaf,
                        std::unordered_map<void*, std::string>* cache) {
  if (const auto it = cache->find(pc); it != cache->end()) return it->second;
  static const ExeSymbols* const exe_symbols = new ExeSymbols();
  void* lookup = is_leaf ? pc
                         : reinterpret_cast<void*>(
                               reinterpret_cast<uintptr_t>(pc) - 1);
  Dl_info info;
  const char* symbol = nullptr;
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    symbol = info.dli_sname;
  } else {
    symbol = exe_symbols->Find(reinterpret_cast<uintptr_t>(lookup));
  }
  std::string name;
  if (symbol != nullptr) {
    int demangle_status = 0;
    char* demangled =
        abi::__cxa_demangle(symbol, nullptr, nullptr, &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name.assign(demangled);
    } else {
      name.assign(symbol);
    }
    std::free(demangled);
    // Collapsed-stack separators are ';' and ' '; scrub them from symbols.
    for (char& c : name) {
      if (c == ';' || c == ' ' || c == '\n') c = '_';
    }
  } else {
    name = util::StrFormat("0x%llx",
                           static_cast<unsigned long long>(
                               reinterpret_cast<uintptr_t>(pc)));
  }
  cache->emplace(pc, name);
  return name;
}

// Renders the aggregate map as collapsed stacks + metadata. Caller holds
// session->mutex.
Profile RenderLocked(SessionState* session) {
  Profile profile;
  profile.hz = session->hz;
  profile.samples = session->samples;
  profile.dropped = TotalDropped();
  profile.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session->started_at)
          .count();
  std::unordered_map<void*, std::string> cache;
  // Re-aggregate by symbolized line: distinct pc stacks can collapse to one
  // symbol stack (inlining, multiple call sites in one function).
  std::map<std::string, uint64_t> lines;
  for (const auto& [key, count] : session->stacks) {
    std::string line;
    // Captured leaf-first; collapsed format wants root-first.
    for (size_t i = key.pcs.size(); i-- > 0;) {
      const bool is_leaf = (i == 0);
      if (!line.empty()) line.push_back(';');
      line.append(SymbolizePc(key.pcs[i], is_leaf, &cache));
    }
    if (!line.empty()) lines[line] += count;
  }
  profile.distinct_stacks = lines.size();
  for (const auto& [line, count] : lines) {
    profile.collapsed.append(line);
    profile.collapsed.append(
        util::StrFormat(" %llu\n", static_cast<unsigned long long>(count)));
  }
  return profile;
}

// ---------------------------------------------------------------------------
// Window-session sharing for /profilez.
// ---------------------------------------------------------------------------

struct WindowShare {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  Profile profile;
  std::string error;
};

std::mutex& WindowMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}
std::shared_ptr<WindowShare>& ActiveWindow() {
  static std::shared_ptr<WindowShare>* active =
      new std::shared_ptr<WindowShare>;
  return *active;
}

}  // namespace

std::string Profile::SummaryJson(size_t top_n) const {
  // Leaf-frame self counts from the collapsed text itself, so the summary
  // always matches the artifact it describes.
  std::map<std::string, uint64_t> self;
  size_t pos = 0;
  while (pos < collapsed.size()) {
    size_t eol = collapsed.find('\n', pos);
    if (eol == std::string::npos) eol = collapsed.size();
    const std::string_view line(collapsed.data() + pos, eol - pos);
    const size_t space = line.rfind(' ');
    if (space != std::string_view::npos) {
      const std::string_view stack = line.substr(0, space);
      const uint64_t count = std::strtoull(
          std::string(line.substr(space + 1)).c_str(), nullptr, 10);
      const size_t semi = stack.rfind(';');
      const std::string_view leaf =
          semi == std::string_view::npos ? stack : stack.substr(semi + 1);
      self[std::string(leaf)] += count;
    }
    pos = eol + 1;
  }
  std::vector<std::pair<std::string, uint64_t>> ranked(self.begin(),
                                                       self.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > top_n) ranked.resize(top_n);

  std::string json = util::StrFormat(
      "{\n  \"duration_seconds\": %.3f,\n  \"hz\": %d,\n"
      "  \"samples\": %llu,\n  \"dropped\": %llu,\n"
      "  \"distinct_stacks\": %llu,\n  \"top\": [",
      duration_seconds, hz, static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(distinct_stacks));
  bool first = true;
  for (const auto& [symbol, count] : ranked) {
    if (!first) json.push_back(',');
    first = false;
    json.append(util::StrFormat(
        "\n    {\"symbol\": \"%s\", \"count\": %llu}",
        JsonEscapeString(symbol).c_str(),
        static_cast<unsigned long long>(count)));
  }
  json.append("\n  ]\n}\n");
  return json;
}

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler;
  return *profiler;
}

bool Profiler::InHandlerForTesting() { return t_in_handler != 0; }

util::Status Profiler::Start(const Options& options) {
  if (options.hz <= 0 || options.hz > 1000) {
    return util::Status::InvalidArgument(
        util::StrFormat("profile hz %d out of range (1..1000)", options.hz));
  }
  SessionState& session = Session();
  std::lock_guard<std::mutex> lock(session.mutex);
  if (session.running) {
    return util::Status::FailedPrecondition(
        "a profiling session is already running");
  }
  if (g_rings == nullptr) {
    g_rings = new ThreadRing[kMaxThreads];  // leaked; TLS pointers cache it
  }
  // Reset pool bookkeeping. Threads keep their claimed ring across sessions
  // (t_ring survives), which is fine: the claim index only grows and the
  // rings are drained empty below.
  for (uint32_t r = 0; r < g_ring_claim.load(std::memory_order_relaxed) &&
                       r < static_cast<uint32_t>(kMaxThreads);
       ++r) {
    g_rings[r].tail.store(g_rings[r].head.load(std::memory_order_acquire),
                          std::memory_order_release);
    g_rings[r].dropped.store(0, std::memory_order_relaxed);
  }
  g_unclaimed_drops.store(0, std::memory_order_relaxed);
  session.stacks.clear();
  session.samples = 0;
  session.hz = options.hz;
  session.started_at = std::chrono::steady_clock::now();

  // Warm up the unwinder on this (ordinary) thread: backtrace()'s first
  // call may dlopen/allocate inside libgcc. After this, handler-context
  // calls are allocation-free.
  void* warmup[kMaxFrames];
  (void)backtrace(warmup, kMaxFrames);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &SigprofHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &session.previous_action) != 0) {
    return util::Status::Internal(
        util::StrFormat("sigaction(SIGPROF): %s", std::strerror(errno)));
  }
  g_armed.store(true, std::memory_order_release);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / options.hz;
  if (timer.it_interval.tv_usec == 0) timer.it_interval.tv_usec = 1;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, &session.previous_timer) != 0) {
    g_armed.store(false, std::memory_order_release);
    sigaction(SIGPROF, &session.previous_action, nullptr);
    return util::Status::Internal(
        util::StrFormat("setitimer(ITIMER_PROF): %s", std::strerror(errno)));
  }

  {
    std::lock_guard<std::mutex> collector_lock(session.collector_mutex);
    session.collector_stop = false;
  }
  session.collector = std::thread([&session] { CollectorLoop(&session); });
  session.running = true;
  HOSR_LOG(Info) << "profiler armed at " << options.hz << "Hz";
  return util::Status::Ok();
}

Profile Profiler::StopAndCollect() {
  SessionState& session = Session();
  std::thread collector;
  {
    std::lock_guard<std::mutex> lock(session.mutex);
    if (!session.running) return Profile();
    // Disarm the timer first, then the handler flag: a SIGPROF already in
    // flight sees g_armed == false and writes nothing.
    struct itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    g_armed.store(false, std::memory_order_release);
    sigaction(SIGPROF, &session.previous_action, nullptr);
    {
      std::lock_guard<std::mutex> collector_lock(session.collector_mutex);
      session.collector_stop = true;
    }
    session.collector_cv.notify_all();
    collector = std::move(session.collector);
  }
  if (collector.joinable()) collector.join();
  std::lock_guard<std::mutex> lock(session.mutex);
  DrainRings(&session);
  Profile profile = RenderLocked(&session);
  session.running = false;
  HOSR_LOG(Info) << "profiler stopped: " << profile.samples << " samples, "
                 << profile.distinct_stacks << " distinct stacks, "
                 << profile.dropped << " dropped";
  return profile;
}

util::StatusOr<Profile> Profiler::SnapshotNow() {
  SessionState& session = Session();
  std::lock_guard<std::mutex> lock(session.mutex);
  if (!session.running) {
    return util::Status::FailedPrecondition("profiler is not running");
  }
  DrainRings(&session);
  return RenderLocked(&session);
}

bool Profiler::running() const {
  SessionState& session = Session();
  std::lock_guard<std::mutex> lock(session.mutex);
  return session.running;
}

util::StatusOr<Profile> Profiler::CollectWindow(double seconds,
                                                Options options) {
  seconds = std::clamp(seconds, 0.1, 30.0);
  std::shared_ptr<WindowShare> share;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(WindowMutex());
    if (ActiveWindow() != nullptr) {
      share = ActiveWindow();  // join the in-flight window
    } else {
      share = std::make_shared<WindowShare>();
      ActiveWindow() = share;
      leader = true;
    }
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(share->mutex);
    share->cv.wait(lock, [&share] { return share->done; });
    if (share->ok) return share->profile;
    return util::Status::FailedPrecondition(share->error);
  }

  // Leader path. A live continuous session (--profile_out) is not disturbed:
  // serve the accumulated snapshot instead of stealing the timer.
  util::StatusOr<Profile> result = [&]() -> util::StatusOr<Profile> {
    if (running()) return SnapshotNow();
    if (util::Status started = Start(options); !started.ok()) {
      return started;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return StopAndCollect();
  }();

  {
    std::lock_guard<std::mutex> lock(WindowMutex());
    ActiveWindow().reset();
  }
  {
    std::lock_guard<std::mutex> lock(share->mutex);
    share->done = true;
    share->ok = result.ok();
    if (result.ok()) {
      share->profile = result.value();
    } else {
      share->error = result.status().ToString();
    }
  }
  share->cv.notify_all();
  return result;
}

}  // namespace hosr::obs
