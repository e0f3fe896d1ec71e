#include "reference.h"

#include <vector>

namespace perfbench {

using triton::data::Key;
using triton::data::Relation;

Expected ReferenceJoin(const Relation& r, const Relation& s, bool corrupt) {
  Expected out;
  const uint64_t n = r.rows();
  std::vector<uint64_t> payload(n + 1, 0);
  std::vector<uint8_t> present(n + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const Key k = r.keys()[i];
    if (k < 1 || static_cast<uint64_t>(k) > n || present[k]) {
      out.valid = false;
      return out;
    }
    present[k] = 1;
    payload[k] = static_cast<uint64_t>(r.payload(0)[i]);
  }
  if (corrupt && s.rows() > 0) {
    const Key k = s.keys()[0];
    if (k >= 1 && static_cast<uint64_t>(k) <= n) payload[k] += 1;
  }
  for (uint64_t i = 0; i < s.rows(); ++i) {
    const Key k = s.keys()[i];
    if (k < 1 || static_cast<uint64_t>(k) > n || !present[k]) continue;
    ++out.matches;
    out.checksum += payload[k] + static_cast<uint64_t>(s.payload(0)[i]);
  }
  return out;
}

Expected ReferenceGroupBy(const Relation& rel, uint64_t domain,
                          bool corrupt) {
  Expected out;
  std::vector<uint64_t> sum(domain + 1, 0);
  std::vector<uint8_t> present(domain + 1, 0);
  for (uint64_t i = 0; i < rel.rows(); ++i) {
    const Key k = rel.keys()[i];
    if (k < 1 || static_cast<uint64_t>(k) > domain) {
      out.valid = false;
      return out;
    }
    present[k] = 1;
    sum[k] += static_cast<uint64_t>(rel.payload(0)[i]);
  }
  if (corrupt && rel.rows() > 0) sum[rel.keys()[0]] += 1;
  for (uint64_t k = 1; k <= domain; ++k) {
    if (!present[k]) continue;
    ++out.matches;
    out.checksum += k * 31 + sum[k];
  }
  return out;
}

}  // namespace perfbench
