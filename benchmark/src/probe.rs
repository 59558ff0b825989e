//! Host-speed probe: a fixed job, timed between a workload's operations,
//! that turns host time into reference-host time.
//!
//! On a shared host the same code runs 1.5× slower in one minute than in
//! the next, and a slow spell covers whole runs: over ten identical runs
//! the median `train_pod` iteration time spread by 16–30%, and
//! `fabric_build`'s round time by up to 38%, at or past any bound a
//! change could be held to. The probe slows down with the host. Its job
//! mixes the access patterns of the simulator's hot loops: dependent
//! loads through a cache-resident cycle, independent gathers from a table
//! larger than the private caches, an unstable sort of tuples, and
//! breadth-first walks over a sparse graph of small heap vectors. Its
//! inputs are built from constants and depend on neither the seed nor the
//! simulator, so no change to the simulator moves it.
//!
//! The job runs in a child process of its own (`hpn-perfbench probe`),
//! kept for the whole run and woken by a line on its stdin, so that its
//! memory stays out of the workload's peak RSS. `train_pod`, `moe_a2a`
//! and `fabric_build` take a reading every second or two of work, at
//! points where nothing else runs, and multiply their end-to-end times by
//! [`REFERENCE_MS`] ÷ the run's median reading: what the times would have
//! been had the host run at the speed it had when the reference was
//! taken. The run's median rather than the readings next to each
//! operation, because a single 40 ms reading is itself noisy.
//!
//! `whatif_serve` is not scaled. Its latency follows thread wake-ups and
//! queueing on two vCPUs more than compute speed: over ten runs, scaling
//! left its `p50_ms` spread at 14–15% and widened its set-up spread from
//! 9% to 17%.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// The job's time on the two-vCPU reference host in a quiet spell. It
/// sets the scale only: any constant gives the same ratios.
pub const REFERENCE_MS: f64 = 36.0;

/// The job's fixed inputs, all built from constants.
const CHASE_LEN: usize = 1 << 16; // u32 cycle, 256 KB
const CHASE_STEPS: usize = 1 << 21;
const TABLE_LEN: usize = 1 << 18; // u64, 2 MB
const GATHERS: usize = 1 << 20;
const SORT_LEN: usize = 100_000;
const SORTS: usize = 2;
const GRAPH_NODES: usize = 26_000;
const GRAPH_DEGREE: usize = 6;
const WALKS: u32 = 20;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The fixed job and its inputs.
struct Job {
    chase: Vec<u32>,
    table: Vec<u64>,
    rows: Vec<(u64, u32)>,
    adj: Vec<Vec<u32>>,
    mark: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl Job {
    fn new() -> Self {
        let mut s = 0x9e37_79b9_7f4a_7c15;
        // One random cycle through every slot, so the chase visits all.
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            order.swap(i, (xorshift(&mut s) % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0; CHASE_LEN];
        for w in 0..CHASE_LEN {
            chase[order[w] as usize] = order[(w + 1) % CHASE_LEN];
        }
        let adj = (0..GRAPH_NODES)
            .map(|_| {
                (0..GRAPH_DEGREE)
                    .map(|_| (xorshift(&mut s) % GRAPH_NODES as u64) as u32)
                    .collect()
            })
            .collect();
        Job {
            chase,
            table: (0..TABLE_LEN as u64).map(|i| i.wrapping_mul(7)).collect(),
            rows: Vec::with_capacity(SORT_LEN),
            adj,
            mark: vec![0; GRAPH_NODES],
            queue: Vec::with_capacity(GRAPH_NODES),
            epoch: 0,
        }
    }

    /// Runs the job once and returns how long it took, in ms.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        black_box(p);

        let mut s = 0x243f_6a88_85a3_08d3;
        let mut sum = 0u64;
        for _ in 0..GATHERS {
            sum = sum.wrapping_add(self.table[xorshift(&mut s) as usize & (TABLE_LEN - 1)]);
        }
        black_box(sum);

        for _ in 0..SORTS {
            self.rows.clear();
            self.rows
                .extend((0..SORT_LEN as u32).map(|i| (xorshift(&mut s), i)));
            self.rows.sort_unstable_by_key(|r| r.0);
            black_box(&self.rows);
        }

        let mut seen = 0usize;
        for w in 0..WALKS {
            self.epoch += 1;
            self.queue.clear();
            self.queue.push(w * 1_000);
            while let Some(u) = self.queue.pop() {
                for &v in &self.adj[u as usize] {
                    if self.mark[v as usize] != self.epoch {
                        self.mark[v as usize] = self.epoch;
                        self.queue.push(v);
                        seen += 1;
                    }
                }
            }
        }
        black_box(seen);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The child's side (`hpn-perfbench probe`): one untimed run that faults
/// the inputs in, then one timed run per line read, its ms written back,
/// until stdin closes.
pub fn child_main() -> i32 {
    let mut job = Job::new();
    job.run();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            return 1;
        }
        if writeln!(out, "{}", job.run())
            .and_then(|()| out.flush())
            .is_err()
        {
            return 1;
        }
    }
    0
}

/// The parent's handle on the probe child and its readings.
pub struct Probe {
    /// `None` once the child failed; later readings are then NaN.
    child: Option<(Child, ChildStdin, BufReader<ChildStdout>)>,
    /// Every reading, ms.
    readings: Vec<f64>,
}

impl Probe {
    /// Starts the child and takes a first reading.
    pub fn new() -> Self {
        let child = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .arg("probe")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
        });
        let child = match child {
            Ok(mut c) => {
                let stdin = c.stdin.take().expect("stdin is piped");
                let stdout = c.stdout.take().expect("stdout is piped");
                Some((c, stdin, BufReader::new(stdout)))
            }
            Err(e) => {
                eprintln!("error: starting the probe: {e}");
                None
            }
        };
        let mut p = Probe {
            child,
            readings: Vec::new(),
        };
        p.read();
        p
    }

    /// Takes a reading: NaN, which makes the run's times NaN and the run
    /// incorrect, if the child has failed.
    pub fn read(&mut self) {
        let ms = self.child.as_mut().and_then(|(_, stdin, stdout)| {
            writeln!(stdin).and_then(|()| stdin.flush()).ok()?;
            let mut line = String::new();
            stdout.read_line(&mut line).ok()?;
            line.trim().parse::<f64>().ok()
        });
        if ms.is_none() {
            if let Some((mut c, _, _)) = self.child.take() {
                eprintln!("error: the probe stopped answering");
                let _ = c.kill();
                let _ = c.wait();
            }
        }
        self.readings.push(ms.unwrap_or(f64::NAN));
    }

    /// [`REFERENCE_MS`] ÷ the median reading: multiply a time measured
    /// in this run by it.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// The median reading, ms (NaN if any reading failed).
    pub fn median_ms(&self) -> f64 {
        if self.readings.iter().any(|r| r.is_nan()) {
            return f64::NAN;
        }
        median(&self.readings).unwrap_or(f64::NAN)
    }
}

impl Drop for Probe {
    /// Closing stdin ends the child; wait for it.
    fn drop(&mut self) {
        if let Some((mut c, stdin, _)) = self.child.take() {
            drop(stdin);
            let _ = c.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_one_cycle_through_every_slot() {
        let job = Job::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = job.chase[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_LEN);
    }

    #[test]
    fn scale_divides_the_reference_by_the_median_reading() {
        let p = |readings: Vec<f64>| Probe {
            child: None,
            readings,
        };
        assert_eq!(p(vec![40.0, 72.0, 45.0]).scale(), REFERENCE_MS / 45.0);
        assert!(p(vec![40.0, f64::NAN, 45.0]).scale().is_nan());
        assert!(Job::new().run() > 0.0);
    }
}
