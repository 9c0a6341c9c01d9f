//===- main.cpp - dcirbench: one run of one benchmark workload -------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload against the public API (api::Compiler, api::Program)
/// and prints, as its last stdout line, a JSON object with `correct`,
/// `attempted`, `failed`, `metrics` (name -> {value, unit}), `rows`
/// (one per program or shape), `setup` (its parts), `window_rates` and
/// `meta` (host description).
///
///   dcirbench --workload W --seed N --seconds S --work DIR
///             [--reference FILE] [--trace-out FILE] [--kernels a,b]
///             [--setup-only] [--traced]
///
/// Every run starts from an empty private JIT cache under DIR (pointed
/// to by $DCIR_CACHE_DIR, removed at exit), so set-up pays every host
/// compiler run. The cold-setup guard aborts without a result when the
/// compiler ran fewer times than set-up needed artifacts. perfbench/run.py
/// builds this binary and combines several of its runs into one result.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "exec/JitCache.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace dcir;
using namespace bench;

namespace {

std::string CacheDir;

void removeCacheDir() {
  if (!CacheDir.empty()) {
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
    CacheDir.clear();
  }
}

[[noreturn]] void die(const std::string &Msg, int Code = 2) {
  std::fprintf(stderr, "dcirbench: %s\n", Msg.c_str());
  removeCacheDir();
  std::exit(Code);
}

struct Args {
  std::string Workload, Work, Reference, TraceOut, Kernels;
  std::uint64_t Seed = 0;
  double Seconds = 0.0;
  bool SetupOnly = false, Traced = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + K);
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = Value();
    else if (K == "--seed") {
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (K == "--seconds")
      A.Seconds = std::atof(Value().c_str());
    else if (K == "--work")
      A.Work = Value();
    else if (K == "--reference")
      A.Reference = Value();
    else if (K == "--trace-out")
      A.TraceOut = Value();
    else if (K == "--kernels")
      A.Kernels = Value();
    else if (K == "--setup-only")
      A.SetupOnly = true;
    else if (K == "--traced")
      A.Traced = true;
    else
      die("unknown argument " + K);
  }
  if (A.Workload.empty() || A.Work.empty() || !HaveSeed || A.Seconds <= 0)
    die("usage: dcirbench --workload W --seed N --seconds S --work DIR "
        "[--reference FILE] [--trace-out FILE] [--kernels a,b] "
        "[--setup-only] [--traced]");
  return A;
}

/// Reads the reference table: one `stem checksum NAME=V,NAME=V` per line.
std::map<std::string, Reference> readReference(const std::string &Path) {
  std::map<std::string, Reference> Out;
  if (Path.empty())
    return Out;
  std::ifstream In(Path);
  if (!In)
    die("cannot read reference " + Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream L(Line);
    std::string Stem, Defs;
    Reference R;
    if (!(L >> Stem >> R.Checksum >> Defs))
      continue;
    std::istringstream D(Defs);
    for (std::string Kv; std::getline(D, Kv, ',');)
      if (auto Eq = Kv.find('='); Eq != std::string::npos)
        R.Defines[Kv.substr(0, Eq)] = std::atoll(Kv.c_str() + Eq + 1);
    Out[Stem] = R;
  }
  return Out;
}

std::string firstLine(const std::string &Cmd) {
  std::string Out;
  if (std::FILE *P = ::popen(Cmd.c_str(), "r")) {
    char Buf[256];
    if (std::fgets(Buf, sizeof(Buf), P))
      Out = Buf;
    ::pclose(P);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

std::string hostMeta() {
  std::string Cpu;
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      Cpu = Line.substr(Line.find(':') + 2);
      break;
    }
  exec::JitCache &C = exec::JitCache::shared();
  return JObj()
      .num("nproc", double(::sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu", Cpu)
      .str("host_compiler", C.compiler())
      .str("host_compiler_version",
           firstLine("'" + C.compiler() + "' --version 2>/dev/null"))
      .str("jit_flags", C.flags())
      .str("jit_tier", C.openmp() ? "openmp" : "serial")
      .done();
}

/// The cold-setup guard: set-up must have run the host compiler once per
/// distinct artifact it needed. Fewer runs mean a warm cache served part
/// of set-up. More runs are expected only when compiles failed (each
/// program then retries its own artifact).
void coldSetupGuard(const Workload &W, unsigned Built, const Tally &T) {
  std::set<std::string> Keys;
  exec::JitCache &C = exec::JitCache::shared();
  for (const Served &S : W.Programs) {
    if (!S.Prog || !S.Prog->graph())
      continue;
    DiagnosticEngine D;
    std::string Cpp = codegen::emitCpp(*S.Prog->graph(), D,
                                       codegenOptionsFor(S));
    if (!Cpp.empty())
      Keys.insert(C.keyFor(Cpp));
  }
  std::uint64_t Want = Keys.size() + Built;
  std::uint64_t Ran = C.stats().CompilerInvocations;
  std::fprintf(stderr,
               "dcirbench: cold-setup guard: %llu compiler runs for %llu "
               "artifacts\n",
               static_cast<unsigned long long>(Ran),
               static_cast<unsigned long long>(Want));
  if (Ran < Want || (Ran > Want && T.failed() == 0))
    die("cold-setup guard: set-up ran the host compiler " +
            std::to_string(Ran) + " times for " + std::to_string(Want) +
            " artifacts; the JIT cache was not cold",
        3);
}

double peakRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

/// One failed operation per program that served any invocation through
/// an engine fallback.
void checkFallbacks(const Workload &W, Tally &T) {
  for (const Served &S : W.Programs)
    if (S.Prog)
      if (auto N = S.Prog->stats().EngineFallbacks)
        T.fail(S.Name + ": " + std::to_string(N) +
               " invocations fell back from the native engine");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);

  // A private, empty JIT cache, set before anything opens the shared one.
  std::filesystem::create_directories(A.Work);
  std::string Tmpl = A.Work + "/cache-XXXXXX";
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  if (!::mkdtemp(Buf.data()))
    die("cannot create a cache directory under " + A.Work);
  CacheDir = Buf.data();
  std::atexit(removeCacheDir);
  ::setenv("DCIR_CACHE_DIR", CacheDir.c_str(), 1);

  std::string Err;
  std::unique_ptr<Workload> W = makeWorkload(
      A.Workload, A.Seed, A.Kernels, readReference(A.Reference), Err);
  if (!W)
    die(Err);

  Tally T;
  SpanLog Log;
  SpanLog *L = A.Traced ? &Log : nullptr;

  // Set-up: every program compiled cold, extra artifacts built, and one
  // untimed round of every client-0 call.
  std::int64_t SetupStart = nowNs();
  compileAll(*W, T, L);
  std::int64_t Compiled = nowNs();
  unsigned Built = W->prepare(T);
  std::int64_t Prepared = nowNs();
  runLoop(*W, 1, 0.0, /*Rounds=*/1, nullptr, T);
  std::int64_t WarmedUp = nowNs();
  // A set-up in which any operation failed skipped work (a failed host
  // compile returns early), so its time is not reported.
  double SetupS = T.failed() ? std::nan("")
                             : double(WarmedUp - SetupStart) / 1e9;
  coldSetupGuard(*W, Built, T);
  const std::string SetupParts =
      JObj()
          .num("compile_s", double(Compiled - SetupStart) / 1e9)
          .num("prepare_s", double(Prepared - Compiled) / 1e9)
          .num("warmup_s", double(WarmedUp - Prepared) / 1e9)
          .done();
  std::printf("set-up parts: %s\n", SetupParts.c_str());

  std::vector<Metric> Metrics;
  std::string Rows = "[", WindowRates = "[";
  if (A.SetupOnly) {
    Metrics.push_back({"setup_s", SetupS, "s"});
  } else if (A.Traced) {
    tracedRun(*W, Log, T, CacheDir, Metrics);
    if (!A.TraceOut.empty() && !Log.write(A.TraceOut))
      std::fprintf(stderr, "dcirbench: cannot write %s\n",
                   A.TraceOut.c_str());
  } else {
    LoopResult R = runLoop(*W, 1, A.Seconds, 0, nullptr, T);
    const double PeakRssMb = peakRssMb();
    // The rows describe the whole loop.
    for (std::size_t K = 0; K < R.Ns.size(); ++K) {
      std::vector<std::uint32_t> &V = R.Ns[K];
      Rows += std::string(K ? "," : "") +
              JObj()
                  .str("key", W->Keys[K])
                  .num("median_ms", quantile(V, 0.5) / 1e6)
                  .num("q1_ms", quantile(V, 0.25) / 1e6)
                  .num("q3_ms", quantile(V, 0.75) / 1e6)
                  .num("n", double(R.KeyCalls[K]))
                  .done();
    }
    // The gated figures come from the window with the highest call rate:
    // on a shared host, other tenants slow whole seconds at a time (1.7x
    // on serve-fixed), and the least-disturbed window is what a change to
    // this code moves. Polybench has one window, the whole loop.
    const LoopResult::Window *Best = nullptr;
    for (const LoopResult::Window &Wd : R.Windows) {
      WindowRates += std::string(WindowRates.size() > 1 ? "," : "") +
                     jnum(Wd.Rate);
      if (!Best || Wd.Rate > Best->Rate)
        Best = &Wd;
    }
    std::vector<double> KeyNs;
    for (const std::vector<std::uint32_t> &V : Best->Ns)
      if (!V.empty())
        KeyNs.push_back(median(V));
    Metrics.push_back({"setup_s", SetupS, "s"});
    Metrics.push_back({"invoke_p50_ns", geomean(KeyNs), "ns"});
    Metrics.push_back(
        {"calls_per_s", R.Calls ? Best->Rate : std::nan(""), "1/s"});
    Metrics.push_back({"peak_rss_mb", PeakRssMb, "MB"});
  }
  Rows += "]";
  WindowRates += "]";
  checkFallbacks(*W, T);

  JObj M;
  for (const Metric &X : Metrics)
    M.raw(X.Name, JObj().num("value", X.Value).str("unit", X.Unit).done());
  std::printf("%s\n", JObj()
                          .raw("correct", T.failed() == 0 ? "true" : "false")
                          .num("attempted", double(T.attempted()))
                          .num("failed", double(T.failed()))
                          .raw("metrics", M.done())
                          .raw("rows", Rows)
                          .raw("setup", SetupParts)
                          .raw("window_rates", WindowRates)
                          .raw("meta", hostMeta())
                          .done()
                          .c_str());
  std::fflush(stdout);
  removeCacheDir();
  return 0;
}
