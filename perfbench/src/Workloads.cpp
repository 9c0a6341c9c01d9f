//===- Workloads.cpp - polybench-*, serve-fixed, serve-shapes --------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "exec/JitCache.h"
#include "pipeline/Pipeline.h"
#include "pipeline/PolybenchRegistry.h"
#include "pipeline/WorkloadDefines.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <sstream>
#include <thread>

using namespace dcir;

namespace bench {
namespace {

/// Linear size multiplier over Polybench MINI (the fig6 bench's
/// --parallel-scale default).
constexpr int PolybenchScale = 8;
/// Relative tolerance of a Polybench checksum against the reference.
/// Parallel reductions reorder sums, so results are not bit-identical.
constexpr double ChecksumRtol = 1e-9;
/// Tolerance of the serve workloads' outputs against a plain C++ loop
/// (their inputs are small integers and halves, so results are exact).
constexpr double ServeRtol = 1e-12;

bool close(double Got, double Want, double Rtol) {
  return std::fabs(Got - Want) <= Rtol * std::max(1.0, std::fabs(Want));
}

std::string mismatch(const char *What, double Got, double Want) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s: got %.17g, expected %.17g", What, Got,
                Want);
  return Buf;
}

std::map<std::string, long long> intDefines(const std::string &Source) {
  std::map<std::string, long long> Out;
  std::istringstream In(Source);
  std::string Line, Name;
  long long Value;
  while (std::getline(In, Line))
    if (pipeline::detail::parseIntDefine(Line, Name, Value))
      Out[Name] = Value;
  return Out;
}

std::vector<int> permutation(int N, std::mt19937_64 &Rng) {
  std::vector<int> P(N);
  for (int I = 0; I < N; ++I)
    P[I] = I;
  std::shuffle(P.begin(), P.end(), Rng);
  return P;
}

//===----------------------------------------------------------------------===//
// polybench-serial / polybench-par3
//===----------------------------------------------------------------------===//

class PolybenchWorkload : public Workload {
public:
  std::uint64_t Seed = 0;
  std::vector<double> Expected;

  std::vector<CallSpec> calls(int Client) const override {
    std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + Client);
    std::vector<CallSpec> Out;
    for (int I : permutation(int(Programs.size()), Rng)) {
      CallSpec C;
      C.Key = C.Prog = I;
      double Want = Expected[I];
      C.Check = [Want](const api::InvocationResult &R) {
        return close(R.ReturnValue, Want, ChecksumRtol)
                   ? std::string()
                   : mismatch("checksum", R.ReturnValue, Want);
      };
      Out.push_back(std::move(C));
    }
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// serve-fixed: the quickstart saxpy, one prebound invocation per client
//===----------------------------------------------------------------------===//

const char *SaxpySource = R"(
#define N 32
double saxpy(double a, double x[32], double y[32]) {
  double acc = 0.0;
  for (int i = 0; i < N; i++)
    y[i] = a * x[i] + y[i];
  for (int i = 0; i < N; i++)
    acc += y[i];
  return acc;
}
)";

class ServeFixedWorkload : public Workload {
public:
  std::uint64_t Seed = 0;

  std::vector<CallSpec> calls(int Client) const override {
    struct Bufs {
      double A[1];
      double X[32], Y[32], Y0[32], Want[32];
      double Sum = 0.0;
    };
    auto B = std::make_shared<Bufs>();
    std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 17 + Client);
    std::uniform_int_distribution<int> Small(-8, 8);
    B->A[0] = double(1 + Rng() % 4);
    for (int I = 0; I < 32; ++I) {
      B->X[I] = Small(Rng);
      B->Y0[I] = B->Y[I] = Small(Rng);
      B->Want[I] = B->A[0] * B->X[I] + B->Y0[I];
      B->Sum += B->Want[I];
    }
    CallSpec C;
    C.Views = {{"a", exec::BufferView::of(B->A, 1)},
               {"x", exec::BufferView::of(B->X, 32)},
               {"y", exec::BufferView::of(B->Y, 32)}};
    C.Reset = [B] { std::memcpy(B->Y, B->Y0, sizeof(B->Y)); };
    C.Check = [B](const api::InvocationResult &R) {
      for (int I = 0; I < 32; ++I)
        if (!close(B->Y[I], B->Want[I], ServeRtol))
          return mismatch("y[i]", B->Y[I], B->Want[I]);
      return close(R.ReturnValue, B->Sum, ServeRtol)
                 ? std::string()
                 : mismatch("return value", R.ReturnValue, B->Sum);
    };
    return {std::move(C)};
  }
};

//===----------------------------------------------------------------------===//
// serve-shapes: a symbolic-size kernel specialized for 8 shapes
//===----------------------------------------------------------------------===//

const char *VscaleSource = R"(
void vscale(int n, double *x) {
  for (int i = 0; i < n; i++)
    x[i] = 0.5 * x[i] + 1.0;
}
)";

/// Shape sizes. All stay below codegen's default parallel grain (256),
/// so every variant is serial and the kernel costs tens of ns: the call
/// is dominated by the API (see perfbench/NOTES.md for n = 256).
const std::int64_t Shapes[] = {16, 24, 32, 48, 64, 96, 128, 192};
constexpr int NumShapes = sizeof(Shapes) / sizeof(Shapes[0]);
/// Calls per client rotation: every shape this many times, shuffled.
constexpr int RotationRepeats = 8;

class ServeShapesWorkload : public Workload {
public:
  std::uint64_t Seed = 0;

  /// Symbol values an invocation of shape \p N sets: every specializable
  /// name that is not a bindable container is an extent of x.
  std::map<std::string, std::int64_t> symbolsFor(std::int64_t N) const {
    std::map<std::string, std::int64_t> Out;
    const api::Program &P = *Programs[0].Prog;
    for (const std::string &S : P.specializableNames())
      if (S != "n")
        Out[S] = N;
    return Out;
  }

  unsigned prepare(Tally &T) override {
    unsigned Built = 0;
    const auto &P = Programs[0].Prog;
    if (!P)
      return 0;
    for (std::int64_t N : Shapes) {
      std::map<std::string, std::int64_t> Values = symbolsFor(N);
      Values["n"] = N;
      if (P->specialize(Values)) {
        T.ok();
        ++Built;
      } else {
        T.fail("specialize(n=" + std::to_string(N) + ") degraded to generic");
      }
    }
    return Built;
  }

  std::vector<CallSpec> calls(int Client) const override {
    struct Bufs {
      std::int64_t N[1];
      std::vector<double> X, X0, Want;
    };
    std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 29 + Client);
    std::uniform_int_distribution<int> Small(-64, 64);
    std::vector<CallSpec> PerShape;
    for (int S = 0; S < NumShapes; ++S) {
      auto B = std::make_shared<Bufs>();
      std::int64_t N = Shapes[S];
      B->N[0] = N;
      for (std::int64_t I = 0; I < N; ++I) {
        B->X0.push_back(Small(Rng));
        B->Want.push_back(0.5 * B->X0.back() + 1.0);
      }
      B->X = B->X0;
      CallSpec C;
      C.Key = S;
      C.Views = {{"n", exec::BufferView::of(B->N, 1)},
                 {"x", exec::BufferView::of(B->X.data(), B->X.size())}};
      C.Symbols = symbolsFor(N);
      C.Reset = [B] { std::copy(B->X0.begin(), B->X0.end(), B->X.begin()); };
      C.Check = [B](const api::InvocationResult &) {
        for (std::size_t I = 0; I < B->X.size(); ++I)
          if (!close(B->X[I], B->Want[I], ServeRtol))
            return mismatch("x[i]", B->X[I], B->Want[I]);
        return std::string();
      };
      PerShape.push_back(std::move(C));
    }
    std::vector<CallSpec> Out;
    for (int R = 0; R < RotationRepeats; ++R)
      for (int S : permutation(NumShapes, Rng))
        Out.push_back(PerShape[S]);
    return Out;
  }
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &Name, std::uint64_t Seed,
             const std::string &Kernels,
             const std::map<std::string, Reference> &Refs, std::string &Err) {
  pipeline::CompileOptions Native;
  Native.Engine = exec::EngineKind::Native;

  if (Name == "polybench-serial" || Name == "polybench-par3") {
    auto W = std::make_unique<PolybenchWorkload>();
    W->Seed = Seed;
    W->WindowSeconds = 0.0;
    pipeline::CompileOptions Opts = Native;
    if (Name == "polybench-serial") {
      Opts.Parallelism = pipeline::ParallelismMode::Off;
    } else {
      Opts.Parallelism = pipeline::ParallelismMode::Maps;
      Opts.NumThreads = 3;
    }
    std::string Filter = "," + Kernels + ",";
    for (const pipeline::PolybenchKernel &K : pipeline::polybenchKernels()) {
      if (!Kernels.empty() &&
          Filter.find("," + std::string(K.Name) + ",") == std::string::npos)
        continue;
      std::string File = K.File;
      std::string Stem = File.substr(File.rfind('/') + 1);
      Stem = Stem.substr(0, Stem.rfind('.'));
      auto Ref = Refs.find(Stem);
      if (Ref == Refs.end()) {
        Err = "no reference checksum for kernel '" + Stem + "'";
        return nullptr;
      }
      Served S;
      S.Name = K.Name;
      S.Entry = K.Entry;
      S.Opts = Opts;
      S.Source = pipeline::prepareWorkload(pipeline::loadWorkload(K.File),
                                           PolybenchScale, {});
      if (intDefines(S.Source) != Ref->second.Defines) {
        Err = "kernel '" + Stem +
              "' defines other sizes than its reference checksum; "
              "regenerate the reference";
        return nullptr;
      }
      W->Expected.push_back(Ref->second.Checksum);
      W->Keys.push_back(S.Name);
      W->Programs.push_back(std::move(S));
    }
    if (W->Programs.empty()) {
      Err = "no Polybench kernel matches '" + Kernels + "'";
      return nullptr;
    }
    W->Name = Name;
    return W;
  }
  if (Name == "serve-fixed") {
    auto W = std::make_unique<ServeFixedWorkload>();
    W->Seed = Seed;
    W->Name = Name;
    W->Programs.push_back({"saxpy", SaxpySource, "saxpy", Native, nullptr});
    W->Keys = {"saxpy"};
    return W;
  }
  if (Name == "serve-shapes") {
    auto W = std::make_unique<ServeShapesWorkload>();
    W->Seed = Seed;
    W->Name = Name;
    W->BindPerCall = true;
    pipeline::CompileOptions Opts = Native;
    Opts.Specialize = pipeline::SpecializeMode::Eager;
    W->Programs.push_back({"vscale", VscaleSource, "vscale", Opts, nullptr});
    for (std::int64_t N : Shapes)
      W->Keys.push_back("vscale/n=" + std::to_string(N));
    return W;
  }
  Err = "unknown workload '" + Name + "'";
  return nullptr;
}

void compileAll(Workload &W, Tally &T, SpanLog *L) {
  std::atomic<std::size_t> Next{0};
  auto Worker = [&] {
    for (std::size_t I; (I = Next++) < W.Programs.size();) {
      Served &S = W.Programs[I];
      api::Compiler C;
      C.options(S.Opts);
      {
        Span Sp(L, "api.compile", L ? L->newOp() : 0, int(I));
        S.Prog = C.compile(S.Source, S.Entry);
      }
      if (!S.Prog)
        T.fail("compile(" + S.Name + ") returned null: " + C.diagnostics());
      else if (!S.Prog->nativePrepareError().empty())
        T.fail("native preparation of " + S.Name +
               " failed: " + S.Prog->nativePrepareError());
      else
        T.ok();
    }
  };
  std::vector<std::thread> Pool;
  for (int I = 1; I < CompileThreads; ++I)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &Th : Pool)
    Th.join();
}

codegen::CodegenOptions codegenOptionsFor(const Served &S) {
  codegen::CodegenOptions O;
  O.ParallelMaps = S.Opts.Parallelism != pipeline::ParallelismMode::Off &&
                   exec::JitCache::shared().openmp();
  O.ProfileMaps = S.Opts.ProfileMaps;
  O.CheckBounds = S.Opts.CheckBounds;
  if (S.Opts.MinParallelWork)
    O.MinParallelWork = S.Opts.MinParallelWork;
  if (S.Opts.MinInLoopParallelWork)
    O.MinInLoopParallelWork = S.Opts.MinInLoopParallelWork;
  if (S.Prog) {
    O.Schedules = S.Prog->verifyDemotions();
    O.Speculative = S.Prog->speculation();
  }
  return O;
}

namespace {

/// Pools reservoirs of the same stream split across clients or windows:
/// each contributes the same fraction of its calls, the smallest fraction
/// any of them holds, so the pool is again a uniform sample.
std::vector<std::uint32_t> pool(const std::vector<const Reservoir *> &Parts) {
  double Frac = 1.0;
  for (const Reservoir *P : Parts)
    if (P->count())
      Frac = std::min(Frac, double(P->held()) / double(P->count()));
  std::vector<std::uint32_t> Out;
  for (const Reservoir *P : Parts) {
    std::size_t Take = std::min<std::size_t>(
        P->held(), std::size_t(Frac * double(P->count()) + 0.5));
    Out.insert(Out.end(), P->data(), P->data() + Take);
  }
  return Out;
}

} // namespace

LoopResult runLoop(const Workload &W, int Clients, double Seconds,
                   int Rounds, SpanLog *L, Tally &T, int CallThreads) {
  const std::int64_t LimitNs = std::int64_t(Seconds * 1e9);
  // Windowed only when time-limited; a loop of rounds is one window.
  const std::int64_t WindowNs = W.WindowSeconds > 0 && Rounds == 0
                                    ? std::int64_t(W.WindowSeconds * 1e9)
                                    : 0;
  const std::size_t NumWindows =
      WindowNs ? std::size_t(LimitNs / WindowNs) + 2 : 1;
  const std::size_t Keys = W.Keys.size();
  // Ns[window * Keys + key], allocated before the clock starts so the
  // loop never allocates samples and peak RSS does not depend on timing.
  std::vector<std::vector<Reservoir>> Outs(Clients);
  std::atomic<int> Ready{0};
  std::atomic<std::int64_t> Start{0};

  auto Client = [&](int C) {
    std::vector<Reservoir> &Out = Outs[C];
    const std::size_t Cap =
        std::max<std::size_t>(4096, (std::size_t(1) << 16) / Keys);
    for (std::size_t I = 0; I < NumWindows * Keys; ++I)
      Out.emplace_back(Cap, 0x51ED + 7919 * I + 104729 * C);
    std::vector<CallSpec> Calls = W.calls(C);
    std::vector<api::Invocation> Pre(Calls.size());
    std::vector<bool> Usable(Calls.size(), true);
    for (std::size_t I = 0; I < Calls.size(); ++I) {
      const auto &Prog = W.Programs[Calls[I].Prog].Prog;
      Usable[I] = Prog != nullptr;
      if (!Usable[I] || W.BindPerCall)
        continue;
      Pre[I] = Prog->newInvocation();
      for (const auto &[Name, View] : Calls[I].Views)
        Pre[I].bind(Name, View);
      for (const auto &[Name, Value] : Calls[I].Symbols)
        Pre[I].setSymbol(Name, Value);
      Pre[I].setNumThreads(CallThreads);
    }
    // All clients start the clock together.
    if (++Ready == Clients)
      Start = nowNs();
    while (Start.load() == 0)
      std::this_thread::yield();
    const std::int64_t T0 = Start.load();
    std::uint64_t Oks = 0; // Added to the shared tally once, at the end.
    for (std::size_t K = 0;; ++K) {
      if (Rounds > 0 && K >= Calls.size() * std::size_t(Rounds))
        break;
      const CallSpec &Call = Calls[K % Calls.size()];
      if (!Usable[K % Calls.size()]) {
        T.fail("call to " + W.Programs[Call.Prog].Name +
               ", which did not compile");
        if (Rounds == 0 && nowNs() - T0 >= LimitNs)
          break;
        continue;
      }
      const api::Program &Prog = *W.Programs[Call.Prog].Prog;
      if (Call.Reset)
        Call.Reset();
      const std::uint64_t Op = L ? L->newOp() : 0;
      api::InvocationResult R;
      std::int64_t A = nowNs();
      {
        Span Whole(L, "loop.call", Op, Call.Key);
        if (W.BindPerCall) {
          api::Invocation I;
          {
            Span B(L, "loop.bind", Op, Call.Key);
            I = Prog.newInvocation();
            for (const auto &[Name, View] : Call.Views)
              I.bind(Name, View);
            for (const auto &[Name, Value] : Call.Symbols)
              I.setSymbol(Name, Value);
            I.setNumThreads(CallThreads);
          }
          Span Inv(L, "loop.invoke", Op, Call.Key);
          R = Prog.invoke(I);
        } else {
          Span Inv(L, "loop.invoke", Op, Call.Key);
          R = Prog.invoke(Pre[K % Calls.size()]);
        }
      }
      std::int64_t B = nowNs();
      const std::string &Who = W.Keys[Call.Key];
      if (!R.Ok) {
        T.fail(Who + ": " + R.Error);
      } else if (R.EngineUsed != exec::EngineKind::Native) {
        T.fail(Who + ": served by " + exec::engineName(R.EngineUsed) +
               ", not native");
      } else if (std::string Bad = Call.Check ? Call.Check(R) : "";
                 !Bad.empty()) {
        T.fail(Who + ": " + Bad);
      } else {
        ++Oks;
        std::size_t Win =
            WindowNs ? std::min<std::size_t>((B - T0) / WindowNs,
                                             NumWindows - 1)
                     : 0;
        Out[Win * Keys + Call.Key].add(std::uint32_t(
            std::min<std::int64_t>(B - A, std::int64_t(UINT32_MAX))));
      }
      if (Rounds == 0 && B - T0 >= LimitNs)
        break;
    }
    T.ok(Oks);
  };
  std::vector<std::thread> Threads;
  for (int C = 1; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  Client(0);
  for (std::thread &Th : Threads)
    Th.join();
  const std::int64_t End = nowNs();

  LoopResult R;
  R.Seconds = double(End - Start.load()) / 1e9;
  R.Ns.resize(Keys);
  R.KeyCalls.assign(Keys, 0);
  for (std::size_t K = 0; K < Keys; ++K) {
    std::vector<const Reservoir *> Parts;
    for (const auto &Out : Outs)
      for (std::size_t Win = 0; Win < NumWindows; ++Win) {
        Parts.push_back(&Out[Win * Keys + K]);
        R.KeyCalls[K] += Parts.back()->count();
      }
    R.Calls += R.KeyCalls[K];
    R.Ns[K] = pool(Parts);
  }
  // Only windows that closed before the loop stopped are full; with none
  // (or no window length) the whole loop is the one window.
  const std::size_t Full =
      WindowNs ? std::min<std::size_t>(
                     std::size_t(R.Seconds * 1e9 / double(WindowNs)),
                     NumWindows - 1)
               : 0;
  if (!Full) {
    R.Windows.push_back(
        {R.Ns, R.Seconds > 0 ? double(R.Calls) / R.Seconds : 0.0});
    return R;
  }
  for (std::size_t Win = 0; Win < Full; ++Win) {
    LoopResult::Window Wd;
    std::uint64_t Calls = 0;
    for (std::size_t K = 0; K < Keys; ++K) {
      std::vector<const Reservoir *> Parts;
      for (const auto &Out : Outs) {
        Parts.push_back(&Out[Win * Keys + K]);
        Calls += Parts.back()->count();
      }
      Wd.Ns.push_back(pool(Parts));
    }
    Wd.Rate = double(Calls) / W.WindowSeconds;
    R.Windows.push_back(std::move(Wd));
  }
  return R;
}

} // namespace bench
