//! Shard worker: one process of a [`ShardedCluster`] fleet.
//!
//! Speaks the length-prefixed frame protocol of `nfv_sim::shard` on
//! stdin/stdout for the life of its coordinator: reads one task frame
//! describing its node slice and builds the nodes once, then answers each
//! run frame with one epoch frame per epoch and a done frame carrying its
//! cursors. Exits 0 when stdin ends, 1 after reporting a failure. Never
//! invoked by hand — the coordinator (`nfv_sim::shard::ShardedCluster`)
//! spawns it once per fleet; `repro shard-worker` is the same loop hosted
//! in the bench binary.
//!
//! [`ShardedCluster`]: nfv_sim::shard::ShardedCluster

use std::io::{stdin, stdout, BufWriter, Write};

fn main() {
    let mut input = stdin().lock();
    // `StdoutLock` is line-buffered; binary frames are full of 0x0A bytes,
    // so without a real block buffer every epoch frame degenerates into a
    // storm of tiny writes. The generous capacity batches many epoch
    // frames per pipe write, keeping worker/coordinator context switches
    // off the per-epoch cost (worker_main flushes after each done frame).
    let mut output = BufWriter::with_capacity(256 * 1024, stdout().lock());
    match nfv_sim::shard::worker_main(&mut input, &mut output) {
        Ok(()) => {
            let _ = output.flush();
        }
        Err(err) => {
            let _ = output.flush();
            eprintln!("shard_worker: {err}");
            std::process::exit(1);
        }
    }
}
