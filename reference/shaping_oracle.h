// Constant-rate padding as an emission sequence plus a stable sort: the
// readable reference `net::ConstantRatePadding` is held to, bit for bit.
//
// It emits every lane's packets in shaping order (overflow and drain at
// their real timestamps, one packet per slot), appends them after the
// passed-through packets and restores time order with std::stable_sort and
// std::inplace_merge. The production shaper builds the same order from
// time-ordered lanes without sorting (DESIGN.md §18).
#pragma once

#include "common/rng.h"
#include "net/device.h"
#include "net/shaping.h"

namespace pmiot::reference {

/// `net::ConstantRatePadding::apply` on a time-sorted capture, for
/// intensity in (0, 1]; draws the same phases from `rng`.
net::ShapedCapture constant_rate_padding(const net::HomeNetwork& home,
                                         double duration_s, double intensity,
                                         Rng& rng);

}  // namespace pmiot::reference
