// Best-effort combinatorial embedding, mirroring the behaviour Stage II of
// the tester assumes from the distributed Ghaffari-Haeupler embedding
// black box: on planar inputs it produces a genuine planar embedding; on
// non-planar inputs it still emits *some* rotation system (the algorithm
// runs under a promise it cannot check), and the violation-detection step
// downstream is what catches the lie.
#pragma once

#include "graph/graph.h"
#include "planar/embedding.h"

namespace cpt {

struct EmbeddingResult {
  RotationSystem rotation;
  // True iff the rotation is a certified planar embedding (LR succeeded).
  // False means the graph is non-planar and `rotation` is a fallback
  // ordering. The paper's embedding black box reports no such flag; Stage
  // II reads it only to skip Definition-7 rejects on certified parts
  // (DESIGN.md section 3).
  bool planar_certified = false;
};

EmbeddingResult best_effort_embedding(const Graph& g);

}  // namespace cpt
