// Reference results computed apart from the simulator.
//
// Each check rebuilds the expected answer from the generated relations in
// O(n) with key-indexed arrays; it shares no code with the joins and
// aggregates it checks.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>

#include "data/relation.h"

namespace perfbench {

struct Expected {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  /// False when the inputs break the generator's key-domain contract, so
  /// no reference could be built (the run then reports incorrect).
  bool valid = true;
};

/// Equi-join R |><| S where R holds primary keys in [1, |R|]: matches is the
/// number of S tuples whose key is in R, checksum the sum over matches of
/// payload_R[key] + payload_S. With `corrupt`, the R payload of the first
/// probe key is off by one, which a correct join must then contradict (the
/// benchmark's self-test).
Expected ReferenceJoin(const triton::data::Relation& r,
                       const triton::data::Relation& s, bool corrupt);

/// SUM(payload) GROUP BY key over keys in [1, domain]: matches is the
/// number of groups, checksum the sum over groups of key * 31 + sum.
Expected ReferenceGroupBy(const triton::data::Relation& rel, uint64_t domain,
                          bool corrupt);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
