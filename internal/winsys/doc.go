// Package winsys models the window-system / Win32 API layer the
// applications call through. Every operation funnels through one of
// three architectural paths selected by the persona:
//
//   - ServerProcess (NT 3.51): domain crossing → server segment →
//     domain crossing back. Each crossing flushes the TLBs, so the
//     server's and the application's working sets are refilled on every
//     call — the mechanism behind the paper's Fig. 9/10 TLB-miss gap.
//   - KernelMode (NT 4.0): mode switch → kernel segment; no flush.
//   - Shared16Bit (Windows 95): mode switch → 16-bit segment carrying
//     segment-register loads, unaligned accesses, and a wider data
//     working set.
//
// Operations describe their memory behaviour as a small *hot* working
// set (warms up and stays resident) plus a *streaming* window (cycled
// through a region larger than the TLB, so it misses persistently —
// bitmap and glyph data during redraws).
//
// Invariants:
//
//   - Costs emerge from mechanism. An operation's latency is whatever
//     the cpu/mem cost model charges for its segments and crossings on
//     the current machine; winsys asserts no latency constants of its
//     own.
//   - Path parity. The same operation issued under different personas
//     performs the same logical work; only the architectural path (and
//     hence the memory-system damage) differs.
//   - Deterministic segment layout. Working-set page numbers are fixed
//     at construction, so two runs touch identical pages in identical
//     order.
//   - Calls in sequence cost what calls one by one cost. A run of n
//     calls is issued as one kernel loop (kernel.TC.Loop) whose steps
//     run at the instants the calling thread would have run them, so
//     the simulation sees the same primitives. Only the host cost
//     falls: one coroutine round trip per run instead of one per
//     primitive.
package winsys
