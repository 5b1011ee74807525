// Pair-displacement functor shared by the batched kernel's scalar and
// vector gather phases.
//
// The force kernels used to take an opaque `disp(xi, xj)` lambda, which
// the vector gather phase cannot see through: it needs the displacement
// *per component* on a whole pack of links at once.  PairDisp keeps the
// lambda's scalar behaviour (plain `xi - xj`, or minimum image when
// periodic) and adds a packed per-component form.  It is a single type
// with a runtime `periodic` flag — not two static types — so only one
// kernel instantiation flows through the accumulator-strategy variant.
//
// Bit-identity of the packed minimum image: the scalar chain
//     if (d > l/2) d -= l; else if (d < -l/2) d += l;
// tests both predicates on the ORIGINAL d, and the two branches are
// disjoint for any l > 0 (d cannot be both above l/2 and below -l/2).
// The packed form computes both masks on the original d and blends with
// the `>` branch taking priority, which is exactly the scalar else-if.
#pragma once

#include "util/simd.hpp"
#include "util/vec.hpp"

namespace hdem {

template <int D>
struct PairDisp {
  Vec<D> box{1.0};
  bool periodic = false;

  // Scalar form — drop-in for the old displacement lambdas.
  Vec<D> operator()(const Vec<D>& xi, const Vec<D>& xj) const {
    Vec<D> d = xi - xj;
    if (periodic) {
      for (int k = 0; k < D; ++k) {
        const double l = box[k];
        if (d[k] > 0.5 * l) {
          d[k] -= l;
        } else if (d[k] < -0.5 * l) {
          d[k] += l;
        }
      }
    }
    return d;
  }

  // Minimum image of one raw component as a select on the original d —
  // the same bits as the else-if chain above, without its branches (the
  // link kernel's per-candidate form).
  double image(double d, int k) const {
    const double l = box[k];
    return d > 0.5 * l ? d - l : (d < -0.5 * l ? d + l : d);
  }

  // Packed form: minimum-image one component of a pack of raw xi - xj
  // displacements.  Lane-identical to the scalar chain above.
  template <class P>
  P component(const P& d, int k) const {
    if (!periodic) return d;
    const double l = box[k];
    const P pl = P::broadcast(l);
    const P half = P::broadcast(0.5 * l);
    const P lo = select(d < -half, d + pl, d);
    return select(d > half, d - pl, lo);
  }
};

}  // namespace hdem
