//! The closed-loop client and its correctness oracle.
//!
//! One connection sends a call, waits for every answer, then sends the
//! next. The oracle tallies acknowledged inserts per key; an estimate
//! below its key's tally is a one-sided violation. Refused or failed calls
//! are counted and never timed.

use std::time::{Duration, Instant};

use sbf_server::{ClientError, Request, Response, SbfClient};

use crate::trace::Tracer;
use crate::workload::{Keys, Spec, LOAD_FRAME};

/// Client-side state of one run: ring cursors, tallies and counts.
#[derive(Debug)]
pub struct Traffic<'a> {
    spec: &'a Spec,
    keys: &'a Keys,
    write_pos: usize,
    read_pos: usize,
    /// Acknowledged inserts per Zipf rank.
    pub tally: Vec<u64>,
    /// Calls sent.
    pub attempted: u64,
    /// Calls refused by the server or lost in transport.
    pub failed: u64,
    /// Estimates below their key's tally.
    pub violations: u64,
    /// Keys acknowledged by writes or answered by reads.
    pub keys_done: u64,
    /// Write frames acknowledged.
    pub write_frames: u64,
}

/// Latencies and throughput of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each acknowledged write call, in µs.
    pub write_us: Vec<f64>,
    /// Latency of each answered read call, in µs.
    pub read_us: Vec<f64>,
    /// Keys acknowledged or answered.
    pub keys: u64,
    /// Length of the phase in seconds.
    pub secs: f64,
}

impl Phase {
    /// Appends another phase's samples.
    pub fn absorb(&mut self, other: Phase) {
        self.write_us.extend(other.write_us);
        self.read_us.extend(other.read_us);
        self.keys += other.keys;
        self.secs += other.secs;
    }

    /// Keys acknowledged or answered per second.
    pub fn keys_per_s(&self) -> f64 {
        self.keys as f64 / self.secs
    }
}

enum Answer {
    Acked,
    Values(Vec<u64>),
    Refused,
}

impl<'a> Traffic<'a> {
    /// A fresh client state; the load phase starts at the head of the
    /// write ring.
    pub fn new(spec: &'a Spec, keys: &'a Keys) -> Self {
        Traffic {
            spec,
            keys,
            write_pos: 0,
            read_pos: 0,
            tally: vec![0; spec.key_space],
            attempted: 0,
            failed: 0,
            violations: 0,
            keys_done: 0,
            write_frames: 0,
        }
    }

    /// Inserts the first `load_keys` keys of the write ring in
    /// `LOAD_FRAME`-key frames. Any refusal fails the load.
    pub fn load(&mut self, c: &mut SbfClient) -> Result<(), ClientError> {
        let end = self.spec.load_keys;
        for start in (0..end).step_by(LOAD_FRAME) {
            let range = start..start + LOAD_FRAME;
            c.insert_batch(&self.keys.write_keys[range.clone()])?;
            for &r in &self.keys.write_ranks[range] {
                self.tally[r as usize] += 1;
            }
        }
        self.write_pos = end % self.keys.write_ranks.len();
        Ok(())
    }

    /// Estimates `ranks` in 1024-key frames, checks each answer against
    /// the oracle and returns the estimates.
    pub fn verify(&mut self, c: &mut SbfClient, ranks: &[u32]) -> Result<Vec<u64>, ClientError> {
        let mut out = Vec::with_capacity(ranks.len());
        for chunk in ranks.chunks(LOAD_FRAME) {
            let keys: Vec<Vec<u8>> = chunk.iter().map(|&r| self.keys.key(r)).collect();
            self.attempted += 1;
            let values = c.estimate_batch(&keys).inspect_err(|_| self.failed += 1)?;
            self.check(chunk, &values);
            out.extend(values);
        }
        Ok(out)
    }

    fn check(&mut self, ranks: &[u32], values: &[u64]) {
        for (&r, &v) in ranks.iter().zip(values) {
            if v < self.tally[r as usize] {
                self.violations += 1;
            }
        }
    }

    /// One write or read call of the workload's shape. `Ok(true)` when
    /// every frame was acknowledged or answered, `Ok(false)` when the
    /// server refused one, `Err` when the connection failed.
    pub fn call(&mut self, c: &mut SbfClient, write: bool) -> Result<bool, ClientError> {
        let (shape, ranks, keys, pos) = if write {
            let k = self.keys;
            (
                self.spec.write,
                &k.write_ranks,
                &k.write_keys,
                &mut self.write_pos,
            )
        } else {
            let k = self.keys;
            (
                self.spec.read,
                &k.read_ranks,
                &k.read_keys,
                &mut self.read_pos,
            )
        };
        let start = *pos;
        let n = shape.keys_per_call();
        *pos = (start + n) % ranks.len();
        let (ranks, keys) = (&ranks[start..start + n], &keys[start..start + n]);
        self.attempted += 1;
        let answers = match send(c, write, shape.frames, keys) {
            Ok(a) => a,
            Err(ClientError::Server { .. }) => vec![Answer::Refused],
            Err(e) => {
                self.failed += 1;
                return Err(e);
            }
        };
        let mut all_ok = true;
        for (answer, (ranks, _)) in answers
            .into_iter()
            .zip(ranks.chunks(shape.keys).zip(keys.chunks(shape.keys)))
        {
            match answer {
                Answer::Acked => {
                    for &r in ranks {
                        self.tally[r as usize] += 1;
                    }
                    self.keys_done += ranks.len() as u64;
                    self.write_frames += 1;
                }
                Answer::Values(v) if v.len() == ranks.len() => {
                    self.check(ranks, &v);
                    self.keys_done += ranks.len() as u64;
                }
                Answer::Values(_) | Answer::Refused => all_ok = false,
            }
        }
        if !all_ok {
            self.failed += 1;
        }
        Ok(all_ok)
    }

    /// Runs whole traffic cycles until `dur` has passed, timing every call;
    /// with a tracer, each call is also a `client.write` or `client.read`
    /// span.
    pub fn timed(
        &mut self,
        c: &mut SbfClient,
        dur: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, ClientError> {
        let mut phase = Phase::default();
        let keys0 = self.keys_done;
        let t0 = Instant::now();
        let calls = self.spec.writes_per_cycle + self.spec.reads_per_cycle;
        while t0.elapsed() < dur {
            for i in 0..calls {
                let write = i < self.spec.writes_per_cycle;
                let started = Instant::now();
                let ok = match tracer.as_deref_mut() {
                    Some(t) => {
                        let mut r = Ok(false);
                        let name = if write { "client.write" } else { "client.read" };
                        t.span(name, |_| {
                            r = self.call(c, write);
                            if write {
                                self.spec.write.keys_per_call() as u64
                            } else {
                                self.spec.read.keys_per_call() as u64
                            }
                        });
                        r
                    }
                    None => self.call(c, write),
                }?;
                let us = started.elapsed().as_nanos() as f64 / 1e3;
                if ok {
                    if write {
                        phase.write_us.push(us);
                    } else {
                        phase.read_us.push(us);
                    }
                }
            }
        }
        phase.secs = t0.elapsed().as_secs_f64();
        phase.keys = self.keys_done - keys0;
        Ok(phase)
    }
}

/// Sends one call through the public client API: `insert_batch` /
/// `estimate_batch` for one batch frame, `insert` / `estimate` for one
/// single-key frame, `pipeline` for a window of frames.
fn send(
    c: &mut SbfClient,
    write: bool,
    frames: usize,
    keys: &[Vec<u8>],
) -> Result<Vec<Answer>, ClientError> {
    let per_frame = keys.len() / frames;
    if frames == 1 {
        return Ok(vec![match (write, per_frame) {
            (true, 1) => c.insert(&keys[0], 1).map(|()| Answer::Acked)?,
            (true, _) => c.insert_batch(keys).map(|()| Answer::Acked)?,
            (false, 1) => Answer::Values(vec![c.estimate(&keys[0])?]),
            (false, _) => Answer::Values(c.estimate_batch(keys)?),
        }]);
    }
    let reqs: Vec<Request> = keys
        .chunks(per_frame)
        .map(|frame| match (write, per_frame) {
            (true, 1) => Request::Insert {
                count: 1,
                key: frame[0].clone(),
            },
            (true, _) => Request::InsertBatch {
                keys: frame.to_vec(),
            },
            (false, 1) => Request::Estimate {
                key: frame[0].clone(),
            },
            (false, _) => Request::EstimateBatch {
                keys: frame.to_vec(),
            },
        })
        .collect();
    Ok(c.pipeline(&reqs)?
        .into_iter()
        .map(|resp| match resp {
            Response::Ok if write => Answer::Acked,
            Response::Value(v) if !write => Answer::Values(vec![v]),
            Response::Values(vs) if !write => Answer::Values(vs),
            _ => Answer::Refused,
        })
        .collect())
}
