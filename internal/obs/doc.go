// Package obs is the observability spine of the cyber-range: a
// zero-dependency, deterministic metrics registry plus the structured
// event records the simulation trace exports as JSONL.
//
// Every sim.Kernel owns one Registry; substrates (netsim, host, cnc, the
// malware models) record their key transitions on it as counters and
// fixed-bucket histograms. Metric names follow the
// subsystem.noun.verb convention (e.g. "lan.smb.copy",
// "flame.module.install"); see DESIGN.md §6 for the full catalogue.
//
// Determinism contract: nothing in this package reads the wall clock or
// any other ambient state, except that ParseJSONL sizes its decoding
// workers by GOMAXPROCS, which its result does not depend on. Snapshots
// encode with stable key ordering
// (sorted names), and Event JSONL lines carry virtual sim time only, so
// two runs with the same seed produce byte-identical exports regardless
// of worker count. Types are not safe for concurrent use: like the
// kernel they belong to, each registry is single-threaded inside one
// simulated world.
package obs
