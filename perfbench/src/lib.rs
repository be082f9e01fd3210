//! Building blocks of the `perfbench` benchmark: the sampler, the span
//! tracer, the open-loop arrival schedule, the Stats-text parser and the
//! host key. The workloads themselves live in the binary.

pub mod hostkey;
pub mod loadgen;
pub mod sampler;
pub mod stats_text;
pub mod trace;
