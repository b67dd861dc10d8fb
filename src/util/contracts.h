// Lightweight contract checking in the spirit of the Core Guidelines'
// Expects/Ensures (I.6, I.8). Violations abort with a source location;
// they indicate programmer error, never recoverable conditions.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace cpt {

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  std::fprintf(stderr, "%s violated: %s at %s:%d\n", kind, expr, file, line);
  std::abort();
}

}  // namespace cpt

#define CPT_EXPECTS(cond)                                              \
  do {                                                                 \
    if (!(cond)) ::cpt::contract_fail("Precondition", #cond, __FILE__, \
                                      __LINE__);                       \
  } while (0)

#define CPT_ENSURES(cond)                                               \
  do {                                                                  \
    if (!(cond)) ::cpt::contract_fail("Postcondition", #cond, __FILE__, \
                                      __LINE__);                        \
  } while (0)

#define CPT_ASSERT(cond)                                            \
  do {                                                              \
    if (!(cond)) ::cpt::contract_fail("Invariant", #cond, __FILE__, \
                                      __LINE__);                    \
  } while (0)
