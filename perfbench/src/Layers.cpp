//===- Layers.cpp - the traced run: staged compile and per-layer probes ----===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run attributes a workload's cost to the repository's layers
/// by calling each layer's public functions from here, each call inside a
/// span:
///
///   stage        frontend -> passes -> conversion -> sdfgopt [-> analysis]
///                -> codegen -> exec.cache, the compile api::Compiler runs,
///                re-done step by step. exec.cache looks the emitted source
///                up in the shared JIT cache: it must find the artifact
///                api::Compiler built, with no new compiler run, or the
///                mirrored pass list below has drifted (a failed operation).
///   exec.jit     JitCache::getOrCompile on a fresh cache root.
///   exec.kernel  the artifact's <entry>__dcir_call, resolved with dlsym.
///   exec.engine  NativeJitEngine::invokeGraph on the program's graph.
///   api.*        Program::invoke (prebound; and with specialization off),
///                newInvocation + bind, and warm api::Compiler::compile.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "conversion/ConvertToSdfg.h"
#include "conversion/TranslateToSDFG.h"
#include "dialects/Dialects.h"
#include "exec/JitCache.h"
#include "exec/NativeJitEngine.h"
#include "frontend/CCodegen.h"
#include "ir/IRContext.h"
#include "ir/Verifier.h"
#include "passes/Pass.h"

#include <dlfcn.h>

#include <atomic>
#include <random>
#include <filesystem>
#include <thread>

using namespace dcir;

namespace bench {
namespace {

/// DCIR's control-centric pass list. It mirrors the private
/// addDcirMlirPasses in src/api/Compiler.cpp; the exec.cache fidelity
/// check fails every kernel when the two drift apart.
void addDcirMlirPasses(passes::PassManager &PM) {
  using namespace passes;
  PM.addPass(createInlinerPass());
  for (int I = 0; I < 2; ++I) {
    PM.addPass(createCanonicalizePass());
    PM.addPass(createCSEPass());
    PM.addPass(createLICMPass());
    PM.addPass(createScalarReplacementPass());
    PM.addPass(createCSEPass());
    PM.addPass(createDCEPass());
  }
}

struct Staged {
  std::string Cpp;
  std::size_t Ops = 0;
  unsigned Rewrites = 0;
  unsigned Maps = 0;
};

/// One staged compile of \p S. Empty Cpp on failure (\p Why explains).
Staged stage(const Served &S, int Key, SpanLog *L, std::string &Why) {
  Staged Out;
  DiagnosticEngine D;
  const std::uint64_t Op = L ? L->newOp() : 0;
  Span Root(L, "stage", Op, Key);
  auto Ctx = std::make_shared<ir::IRContext>();
  registerAllDialects(*Ctx);
  ir::Operation *Module;
  {
    Span Sp(L, "frontend", Op, Key);
    Module = frontend::compileCToModule(S.Source, *Ctx, D);
  }
  if (!Module) {
    Why = "frontend: " + D.str();
    return Out;
  }
  Module->walk([&](ir::Operation *) { ++Out.Ops; });
  bool Ok;
  {
    Span Sp(L, "passes", Op, Key);
    passes::PassManager PM(/*VerifyEach=*/false);
    addDcirMlirPasses(PM);
    Ok = PM.run(Module, D) && ir::verify(Module, D);
  }
  if (!Ok) {
    ir::Operation::eraseDetached(Module);
    Why = "passes: " + D.str();
    return Out;
  }
  std::unique_ptr<sdfg::SDFG> G;
  {
    Span Sp(L, "conversion", Op, Key);
    ir::Operation *SdfgModule = conversion::convertToSdfgDialect(Module, D);
    ir::Operation::eraseDetached(Module);
    if (SdfgModule && ir::verify(SdfgModule, D))
      G = conversion::translateToSDFG(SdfgModule, S.Entry, D);
    if (SdfgModule)
      ir::Operation::eraseDetached(SdfgModule);
  }
  if (!G) {
    Why = "conversion: " + D.str();
    return Out;
  }
  sdfgopt::OptReport Report;
  {
    Span Sp(L, "sdfgopt", Op, Key);
    Ok = api::detail::optimizeGraph(*G, S.Opts, Report, D) && G->validate(D);
  }
  if (!Ok) {
    Why = "sdfgopt: " + D.str();
    return Out;
  }
  Out.Rewrites = Report.Passes.totalRewrites();
  for (const auto &St : G->states())
    for (const auto &N : St->nodes())
      if (const auto *M = dyn_cast<sdfg::MapEntry>(N.get()))
        Out.Maps += M->Speculative ? 0 : 1;

  codegen::CodegenOptions CO = codegenOptionsFor(S);
  pipeline::StaticVerifyMode Mode = api::detail::effectiveStaticVerify(S.Opts);
  if (Mode != pipeline::StaticVerifyMode::Off) {
    Span Sp(L, "analysis", Op, Key);
    analysis::AnalysisResult AR;
    CO.Schedules.clear();
    CO.Speculative.clear();
    if (!api::detail::applyStaticVerify(*G, S.Entry, Mode, D, AR,
                                        CO.Schedules, CO.Speculative)) {
      Why = "analysis: " + D.str();
      return Out;
    }
  }
  {
    Span Sp(L, "codegen", Op, Key);
    Out.Cpp = codegen::emitCpp(*G, D, CO);
  }
  if (Out.Cpp.empty())
    Why = "codegen: " + D.str();
  return Out;
}

/// Calls into the four layers a served invocation passes through, for one
/// call shape of one program.
class Prober {
public:
  Prober(const Served &S, const CallSpec &C, const std::string &Cpp,
         Tally &T, std::string Who)
      : S(S), C(C), T(T), Who(std::move(Who)) {
    const api::Program &P = *S.Prog;
    const sdfg::SDFG &G = *P.graph();
    for (const auto &[Name, View] : C.Views)
      Bindings[Name] = View;

    // exec.kernel: the uniform-ABI entry of the artifact, found in the
    // shared cache by the staged source (a cache hit, never a compile).
    DiagnosticEngine D;
    if (void *H = exec::JitCache::shared().getOrCompile(Cpp, D)) {
      Fn = reinterpret_cast<void (*)(void **, const long long *)>(
          dlsym(H, (S.Entry + "__dcir_call").c_str()));
      SetThreads = reinterpret_cast<void (*)(long long)>(
          dlsym(H, (S.Entry + "__dcir_set_threads").c_str()));
    }
    codegen::CallSignature Sig = codegen::callSignature(G);
    Scratch.resize(Sig.Args.size());
    for (std::size_t I = 0; I < Sig.Args.size(); ++I) {
      auto It = Bindings.find(Sig.Args[I]);
      if (It != Bindings.end()) {
        Ptrs.push_back(It->second.Ptr);
        continue;
      }
      Scratch[I].assign(
          exec::detail::containerElements(G.desc(Sig.Args[I]), C.Symbols) + 1,
          0);
      Ptrs.push_back(Scratch[I].data());
      if (Sig.Args[I] == "__return")
        ReturnSlot = Scratch[I].data();
    }
    for (const std::string &Sym : Sig.FreeSymbols) {
      auto It = C.Symbols.find(Sym);
      Syms.push_back(It == C.Symbols.end() ? 0 : It->second);
    }
    Syms.push_back(0); // Never empty: data() must be dereferenceable.

    // exec.engine: a native engine configured the way Program::create
    // configures its own.
    Engine = exec::createEngine(exec::EngineKind::Native);
    exec::EngineConfig Cfg;
    Cfg.ParallelMaps = S.Opts.Parallelism != pipeline::ParallelismMode::Off;
    Cfg.NumThreads = S.Opts.NumThreads;
    Cfg.ProfileMaps = S.Opts.ProfileMaps;
    Cfg.MinParallelWork = S.Opts.MinParallelWork;
    Cfg.MinInLoopParallelWork = S.Opts.MinInLoopParallelWork;
    Cfg.CheckBounds = S.Opts.CheckBounds;
    Engine->configure(Cfg);
    if (!P.verifyDemotions().empty() || !P.speculation().empty()) {
      exec::GraphTuning GT;
      GT.Schedules = P.verifyDemotions();
      GT.Speculation = P.speculation();
      Engine->tuneGraph(G, GT);
    }
    auto Before = exec::JitCache::shared().stats().CompilerInvocations;
    std::string Error;
    EngineReady = Engine->prepareGraph(G, Error, nullptr);
    if (!EngineReady)
      T.fail(Who + ": engine preparation failed: " + Error);
    else if (exec::JitCache::shared().stats().CompilerInvocations != Before)
      T.fail(Who + ": engine preparation ran the host compiler");
    Req.Bindings = &Bindings;
    Req.Symbols = C.Symbols;
    Req.NumThreads = S.Opts.NumThreads;
    Req.SnapshotOutputs = false;

    Pre = P.newInvocation();
    Generic = P.newInvocation();
    Generic.setSpecialize(false);
    bindAll(Pre);
    bindAll(Generic);
  }

  void bindAll(api::Invocation &I) const {
    for (const auto &[Name, View] : C.Views)
      I.bind(Name, View);
    for (const auto &[Name, Value] : C.Symbols)
      I.setSymbol(Name, Value);
  }

  void check(bool Ok, const api::InvocationResult &R, const char *Layer) {
    std::string Bad = !Ok ? "did not run"
                          : (C.Check ? C.Check(R) : std::string());
    if (Bad.empty())
      T.ok();
    else
      T.fail(Who + " via " + Layer + ": " + Bad);
  }

  /// One round: each layer once, in a fixed order.
  void round(SpanLog *L, int Key) {
    const api::Program &P = *S.Prog;
    api::InvocationResult R;
    R.EngineUsed = exec::EngineKind::Native;
    if (Fn) {
      if (C.Reset)
        C.Reset();
      {
        Span Sp(L, "exec.kernel", L->newOp(), Key);
        if (SetThreads)
          SetThreads(S.Opts.NumThreads);
        Fn(Ptrs.data(), Syms.data());
      }
      R.ReturnValue = ReturnSlot ? *reinterpret_cast<double *>(ReturnSlot) : 0;
      check(true, R, "exec.kernel");
    } else {
      T.fail(Who + ": no __dcir_call entry in the cached artifact");
    }
    if (EngineReady) {
      if (C.Reset)
        C.Reset();
      exec::EngineRun E;
      {
        Span Sp(L, "exec.engine", L->newOp(), Key);
        E = Engine->invokeGraph(*P.graph(), Req);
      }
      R.ReturnValue = E.ReturnValue;
      check(E.Ok, R, "exec.engine");
    }
    for (api::Invocation *I : {&Pre, &Generic}) {
      if (C.Reset)
        C.Reset();
      {
        Span Sp(L, I == &Pre ? "api.invoke" : "api.invoke.generic",
                L->newOp(), Key);
        R = P.invoke(*I);
      }
      check(R.Ok && R.EngineUsed == exec::EngineKind::Native, R,
            I == &Pre ? "api.invoke" : "api.invoke.generic");
    }
    {
      Span Sp(L, "api.bind", L->newOp(), Key);
      api::Invocation I = P.newInvocation();
      bindAll(I);
      if (!I.error().empty())
        T.fail(Who + ": bind: " + I.error());
    }
  }

private:
  const Served &S;
  const CallSpec &C;
  Tally &T;
  std::string Who;
  std::map<std::string, exec::BufferView> Bindings;
  void (*Fn)(void **, const long long *) = nullptr;
  void (*SetThreads)(long long) = nullptr;
  std::vector<std::vector<std::uint64_t>> Scratch;
  std::vector<void *> Ptrs;
  std::vector<long long> Syms;
  void *ReturnSlot = nullptr;
  std::unique_ptr<exec::ExecutionEngine> Engine;
  bool EngineReady = false;
  exec::InvocationRequest Req;
  api::Invocation Pre, Generic;
};

/// Geometric mean over keys of each key's median self time of span
/// \p Name, in ns (NaN when the span never ran).
double perKeyGeomean(
    const std::map<std::pair<std::string, int>, std::vector<double>> &Self,
    const std::string &Name) {
  std::vector<double> Medians;
  for (const auto &[NK, V] : Self)
    if (NK.first == Name)
      Medians.push_back(median(V));
  return geomean(Medians);
}

/// Warm recompiles: api::Compiler::compile when the artifact is already
/// in the process's JIT cache. Each call makes \p Rounds passes over the
/// programs in a seeded order and appends to \p Ms (per program, ms).
void recompileRounds(const Workload &W, std::size_t Rounds,
                     std::mt19937_64 &Rng, Tally &T,
                     std::vector<std::vector<double>> &Ms) {
  std::vector<std::size_t> Order;
  for (std::size_t I = 0; I < W.Programs.size(); ++I)
    if (W.Programs[I].Prog)
      Order.push_back(I);
  exec::JitCache &C = exec::JitCache::shared();
  auto Before = C.stats().CompilerInvocations;
  for (std::size_t Rep = 0; Rep < Rounds; ++Rep) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (std::size_t I : Order) {
      const Served &S = W.Programs[I];
      api::Compiler Comp;
      Comp.options(S.Opts);
      std::int64_t A = nowNs();
      std::shared_ptr<const api::Program> P = Comp.compile(S.Source, S.Entry);
      std::int64_t B = nowNs();
      if (!P)
        T.fail("recompile(" + S.Name + ") returned null");
      else if (!P->nativePrepareError().empty())
        T.fail("recompile(" + S.Name + "): " + P->nativePrepareError());
      else {
        T.ok();
        Ms[I].push_back(double(B - A) / 1e6);
      }
    }
  }
  if (auto Ran = C.stats().CompilerInvocations - Before)
    T.failOnly("recompiles ran the host compiler " + std::to_string(Ran) +
               " times; api.recompile_ms is not a warm-cache time");
}

double primaryNs(const LoopResult &R) {
  std::vector<double> P50;
  for (const auto &V : R.Ns)
    if (!V.empty())
      P50.push_back(median(V));
  return geomean(P50);
}

} // namespace

void tracedRun(Workload &W, SpanLog &Log, Tally &T, const std::string &Scratch,
               std::vector<Metric> &Out) {
  // One untraced round of the workload's calls sets how many rounds the
  // probes and the tracing-cost loops take: about a second's worth.
  const double RoundS = std::max(runLoop(W, 1, 0.0, 1, nullptr, T).Seconds,
                                 1e-6);
  auto roundsFor = [&](int Min, int Max) {
    return std::clamp(int(1.0 / RoundS), Min, std::max(Min, Max));
  };

  // Staged compiles: three reps per program; the first also checks that
  // the shared cache already holds what api::Compiler built.
  std::vector<std::string> Cpp(W.Programs.size());
  double Ops = 0, Rewrites = 0, Maps = 0, Kb = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (std::size_t I = 0; I < W.Programs.size(); ++I) {
      const Served &S = W.Programs[I];
      if (!S.Prog) {
        T.fail("stage " + S.Name + ": program did not compile");
        continue;
      }
      std::string Why;
      Staged St = stage(S, int(I), &Log, Why);
      if (St.Cpp.empty()) {
        T.fail("stage " + S.Name + ": " + Why);
        continue;
      }
      if (Rep > 0) {
        T.ok();
        continue;
      }
      DiagnosticEngine D;
      exec::JitCache &Shared = exec::JitCache::shared();
      auto Before = Shared.stats().CompilerInvocations;
      void *H;
      {
        Span Sp(&Log, "exec.cache", Log.newOp(), int(I));
        H = Shared.getOrCompile(St.Cpp, D);
      }
      if (!H || Shared.stats().CompilerInvocations != Before)
        T.fail("staged path for " + S.Name +
               " missed the artifact api::Compiler built");
      else
        T.ok();
      Ops += double(St.Ops);
      Rewrites += St.Rewrites;
      Maps += St.Maps;
      Kb += double(St.Cpp.size()) / 1024.0;
      Cpp[I] = std::move(St.Cpp);
    }

  // Host compiler on a fresh cache root, as many threads as set-up uses.
  {
    std::string Root = Scratch + "/fresh-root";
    std::filesystem::create_directories(Root);
    exec::JitCache Fresh(Root);
    std::atomic<std::size_t> Next{0};
    auto Worker = [&] {
      for (std::size_t I; (I = Next++) < Cpp.size();) {
        if (Cpp[I].empty())
          continue;
        DiagnosticEngine D;
        void *H;
        {
          Span Sp(&Log, "exec.jit", Log.newOp(), int(I));
          H = Fresh.getOrCompile(Cpp[I], D);
        }
        if (H)
          T.ok();
        else
          T.fail("host compile of " + W.Programs[I].Name + ": " + D.str());
      }
    };
    std::vector<std::thread> Pool;
    for (int I = 1; I < CompileThreads; ++I)
      Pool.emplace_back(Worker);
    Worker();
    for (std::thread &Th : Pool)
      Th.join();
    Out.push_back({"exec.compiler_runs",
                   double(Fresh.stats().CompilerInvocations), "count"});
  }

  // Serving layers, probed with client 0's calls (one per key).
  {
    std::vector<CallSpec> Calls = W.calls(0);
    std::vector<const CallSpec *> ByKey(W.Keys.size(), nullptr);
    for (const CallSpec &C : Calls)
      if (!ByKey[C.Key])
        ByKey[C.Key] = &C;
    std::vector<std::unique_ptr<Prober>> Probers(W.Keys.size());
    for (std::size_t K = 0; K < ByKey.size(); ++K) {
      const Served &S = W.Programs[ByKey[K]->Prog];
      if (S.Prog && !Cpp[ByKey[K]->Prog].empty())
        Probers[K] = std::make_unique<Prober>(S, *ByKey[K], Cpp[ByKey[K]->Prog],
                                              T, W.Keys[K]);
    }
    for (int R = 0, N = roundsFor(3, 2000); R < N; ++R)
      for (std::size_t K = 0; K < Probers.size(); ++K)
        if (Probers[K])
          Probers[K]->round(&Log, int(K));
  }

  // Warm recompiles: at least five per program and 100 in all.
  std::vector<std::vector<double>> Recompile(W.Programs.size());
  std::mt19937_64 Rng(0x5EED);
  const std::size_t RecompileRounds =
      std::max<std::size_t>(5, (100 + W.Programs.size() - 1) /
                                   W.Programs.size());
  recompileRounds(W, RecompileRounds, Rng, T, Recompile);
  std::vector<double> RecompileMs;
  for (const auto &V : Recompile)
    if (!V.empty())
      RecompileMs.push_back(median(V));

  // Contention: the workload's own closed loop with one client, then with
  // three, three seconds each. Every call runs on one OpenMP thread, so
  // three clients keep three threads busy on polybench-par3 too and the
  // ratio does not measure oversubscription of the cores.
  LoopResult One = runLoop(W, 1, 3.0, 0, nullptr, T, /*CallThreads=*/1);
  LoopResult Three = runLoop(W, 3, 3.0, 0, nullptr, T, /*CallThreads=*/1);
  std::vector<double> Ratios;
  for (std::size_t K = 0; K < W.Keys.size(); ++K)
    if (!One.Ns[K].empty() && !Three.Ns[K].empty())
      Ratios.push_back(median(Three.Ns[K]) / median(One.Ns[K]));

  // Tracing cost: the same loop untraced, then traced, over the same
  // number of rounds (at most 20000 calls per client, so the traced
  // loop's spans stay small).
  const int Rounds = roundsFor(2, 20000 / int(W.calls(0).size()));
  auto specCounts = [&W] {
    std::pair<std::uint64_t, std::uint64_t> HitsCalls{0, 0};
    for (const Served &S : W.Programs)
      if (S.Prog) {
        api::ProgramStats St = S.Prog->stats();
        HitsCalls.first += St.SpecializeHits;
        HitsCalls.second += St.Invocations;
      }
    return HitsCalls;
  };
  auto Before = specCounts();
  LoopResult Plain = runLoop(W, 1, 0.0, Rounds, nullptr, T);
  auto After = specCounts();
  std::uint64_t Hits = After.first - Before.first;
  std::uint64_t Invocations = After.second - Before.second;
  LoopResult Traced = runLoop(W, 1, 0.0, Rounds, &Log, T);
  std::vector<std::uint32_t> AllCalls;
  for (const auto &V : Plain.Ns)
    AllCalls.insert(AllCalls.end(), V.begin(), V.end());

  std::map<std::string, SpanLog::Summary> ByName;
  std::map<std::pair<std::string, int>, std::vector<double>> Self;
  Log.summarize(ByName, Self);
  double JitSeconds = 0.0;
  for (const auto &[NK, V] : Self)
    if (NK.first == "exec.jit")
      for (double Ns : V)
        JitSeconds += Ns / 1e9;
  std::vector<double> Dispatch;
  for (std::size_t K = 0; K < W.Keys.size(); ++K) {
    auto A = Self.find({"api.invoke", int(K)});
    auto B = Self.find({"api.invoke.generic", int(K)});
    if (A != Self.end() && B != Self.end())
      Dispatch.push_back(median(A->second) - median(B->second));
  }
  for (const char *Layer :
       {"frontend", "passes", "conversion", "sdfgopt", "codegen"})
    Out.push_back({std::string(Layer) + ".ms",
                   perKeyGeomean(Self, Layer) / 1e6, "ms"});
  Out.push_back({"api.recompile_ms", geomean(RecompileMs), "ms"});
  Out.push_back({"frontend.ops", Ops, "count"});
  Out.push_back({"sdfgopt.rewrites", Rewrites, "count"});
  Out.push_back({"sdfgopt.parallel_maps", Maps, "count"});
  Out.push_back({"codegen.kb", Kb, "KiB"});
  Out.push_back({"exec.jit_compile_s", JitSeconds, "s"});
  Out.push_back({"exec.kernel_ns", perKeyGeomean(Self, "exec.kernel"), "ns"});
  Out.push_back({"exec.engine_ns", perKeyGeomean(Self, "exec.engine"), "ns"});
  Out.push_back({"api.invoke_ns", perKeyGeomean(Self, "api.invoke"), "ns"});
  Out.push_back({"api.invoke_p99_ns", quantile(AllCalls, 0.99), "ns"});
  Out.push_back({"api.bind_ns", perKeyGeomean(Self, "api.bind"), "ns"});
  Out.push_back({"api.dispatch_ns", median(Dispatch), "ns"});
  Out.push_back({"api.spec_hit_frac",
                 Invocations ? double(Hits) / double(Invocations) : 0.0,
                 "fraction"});
  Out.push_back({"api.contention_x", geomean(Ratios), "x"});
  Out.push_back({"trace.overhead_frac",
                 primaryNs(Traced) / primaryNs(Plain) - 1.0, "fraction"});

  std::printf("span self times (traced run, %s):\n", W.Name.c_str());
  std::printf("  %-20s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto &[Name, S] : ByName)
    std::printf("  %-20s %10llu %14.3f %14.3f\n", Name.c_str(),
                static_cast<unsigned long long>(S.Count), S.TotalNs / 1e6,
                S.SelfNs / 1e6);
}

} // namespace bench
