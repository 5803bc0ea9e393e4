// Chrome trace-event export of a Device's kernel log.
//
// Serializes the recorded kernels onto a modeled timeline as a JSON object
// in the Trace Event Format, loadable in chrome://tracing or Perfetto
// (ui.perfetto.dev -> "Open trace file").  Layout:
//
//   tid 0 "stages"      one slice per sim::Stage that launched a kernel
//   tid 1 "kernels"     one complete ("ph":"X") slice per kernel, with the
//                       event counters and derived metrics in args
//   tid 2 "memory pipe" the DRAM-throughput component of each kernel
//   tid 3 "issue pipe"  the instruction-issue component of each kernel
//
// plus counter tracks ("ph":"C") for cumulative DRAM transactions and the
// per-kernel achieved bandwidth.  Timestamps are microseconds (the trace
// format's native unit); kernel slices are laid end to end, so the sum of
// their durations equals Device::total_ms().  Export only reads the
// device (site labels come from the const Device::site_stats()).
#pragma once

#include <iosfwd>
#include <string>

namespace ms::sim {

class Device;

/// Write the trace JSON for everything `dev` has recorded.
void write_chrome_trace(const Device& dev, std::ostream& os);

/// Convenience file variant; returns false (and writes nothing) when the
/// file cannot be opened.
bool write_chrome_trace_file(const Device& dev, const std::string& path);

}  // namespace ms::sim
