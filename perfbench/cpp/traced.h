// The traced run: per-layer host time measured from outside the library.
//
// Two passes, both separate from the timed end-to-end runs:
//  * in situ — build the workload's exact spec through
//    sim::build_sim_instance with hooks that wrap every ROP engine in a
//    callback-timing listener and hang a capture auditor on every channel
//    (executed ticks, the demand stream with arrival cycles). Its simulated
//    stats must equal an untraced run_experiment of the same spec;
//  * replay — drive each layer's public functions standalone on the
//    captured or regenerated input and time the calls.
#pragma once

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// Repeats rounds (untraced run, in-situ pass, replay pass) until
/// `seconds` are used, at least one; reports the median of each metric.
[[nodiscard]] Report run_traced(const Workload& w, double seconds);

}  // namespace perfbench
