//===- Layers.h - the traced run --------------------------------------------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_LAYERS_H
#define DCIRBENCH_LAYERS_H

#include "Workloads.h"

#include <string>
#include <vector>

namespace bench {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// After set-up, attributes \p W's compile and serving cost to layers
/// (see Layers.cpp) and appends every per-layer metric to \p Out.
/// \p Scratch is a private directory for the fresh cache root.
void tracedRun(Workload &W, SpanLog &Log, Tally &T, const std::string &Scratch,
               std::vector<Metric> &Out);

} // namespace bench

#endif // DCIRBENCH_LAYERS_H
