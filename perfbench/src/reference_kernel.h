// Host-speed reference for the benchmark's host-time metrics.
//
// The host the benchmark runs on may be shared with other virtual machines.
// For seconds to minutes at a time they can slow every process on it by up
// to 1.8x, and no clock or counter of the guest shows it. A fixed kernel
// that shares no code with the simulator is therefore timed after each
// repetition of a workload; the two slow down together. Host-time metrics
// are reported in seconds of a host whose reference pass takes
// kReferencePassSeconds: a repetition's host time is divided by the pass
// that follows it and multiplied by kReferencePassSeconds. One-off timings
// (set-up) are scaled by kReferencePassSeconds / (median pass of the run).

#ifndef PERFBENCH_REFERENCE_KERNEL_H_
#define PERFBENCH_REFERENCE_KERNEL_H_

namespace perfbench {

/// Host seconds of one reference pass on an undisturbed host: the nominal
/// speed that scaled host times refer to.
inline constexpr double kReferencePassSeconds = 0.075;

/// Runs one pass of the reference kernel and returns its host seconds: it
/// maps 80 MiB of fresh pages, makes 1 Mi random inserts and 1 Mi random
/// probes in a 16 MiB open-addressing table, streams twice over 32 MiB, and
/// unmaps the pages again. Fresh pages each pass keep the pass from
/// depending on where one allocation happened to land.
double ReferencePass();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_KERNEL_H_
