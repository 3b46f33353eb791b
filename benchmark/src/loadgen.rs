//! The load generator: one thread per connection, never more than two,
//! so that on two cores the server keeps a core of its own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use prism_api::{SelectionHandle, SelectionOutcome, SelectionService, ServiceError};
use prism_wire::WireClient;

use crate::inputs::Request;

/// One request as the client saw it. Times are microseconds since the
/// pass began.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub copy: bool,
    /// When the request was due: the schedule's time on an open loop,
    /// the moment of sending on a closed one.
    pub due_us: u64,
    /// `WireClient::submit` entered.
    pub sent_us: u64,
    /// `WireClient::submit` returned.
    pub submitted_us: u64,
    /// The outcome was in the caller's hands.
    pub done_us: u64,
    pub outcome: Result<SelectionOutcome, String>,
}

impl Sample {
    /// Latency as a caller experiences it: from when the request was due.
    pub fn latency_us(&self) -> u64 {
        self.done_us - self.due_us
    }
}

/// All samples of one pass, ascending by request index.
pub struct Pass {
    pub samples: Vec<Sample>,
    /// First send to last completion.
    pub wall_s: f64,
}

impl Pass {
    fn collect(mut samples: Vec<Sample>, epoch: Instant) -> Pass {
        samples.sort_by_key(|s| s.index);
        Pass {
            samples,
            wall_s: epoch.elapsed().as_secs_f64(),
        }
    }

    pub fn ok(&self) -> impl Iterator<Item = (&Sample, &SelectionOutcome)> {
        self.samples
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok().map(|o| (s, o)))
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.outcome.is_err()).count()
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Count(usize),
}

fn micros(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

fn flatten(result: Result<SelectionOutcome, ServiceError>) -> Result<SelectionOutcome, String> {
    result.map_err(|e| e.to_string())
}

/// Closed loop: each client sends its next request only after the reply
/// to its previous one. Requests are handed out from one counter, so the
/// set sent is always the prefix `0..n` of the sequence `request` yields.
pub fn closed_loop(
    clients: &[WireClient],
    request: impl Fn(usize) -> Request + Sync,
    stop: Stop,
) -> Pass {
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter()
            .map(|client| {
                let (next, request) = (&next, &request);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let more = match stop {
                            Stop::After(span) => epoch.elapsed() < span,
                            Stop::Count(n) => index < n,
                        };
                        if !more {
                            return samples;
                        }
                        let request = request(index);
                        let sent_us = micros(epoch);
                        let submitted = client.submit(request.batch, request.options);
                        let submitted_us = micros(epoch);
                        let outcome = flatten(submitted.and_then(SelectionHandle::wait));
                        samples.push(Sample {
                            index,
                            copy: request.copy,
                            due_us: sent_us,
                            sent_us,
                            submitted_us,
                            done_us: micros(epoch),
                            outcome,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    Pass::collect(samples, epoch)
}

struct InFlight {
    sample: Sample,
    handle: SelectionHandle,
}

/// Moves every finished request at the front of `in_flight` to `done`.
/// One worker serves in arrival order, so replies on a connection come
/// back in order and batch-mates complete together: after the front
/// handle wakes, its batch-mates are collected within microseconds.
fn harvest(
    in_flight: &mut VecDeque<InFlight>,
    done: &mut Vec<Sample>,
    epoch: Instant,
    wait: Option<Duration>,
) {
    let mut wait = wait;
    while let Some(front) = in_flight.front() {
        let outcome = match wait.take() {
            Some(timeout) => front.handle.wait_timeout(timeout),
            None => front.handle.poll(),
        };
        let Some(outcome) = outcome else { return };
        let mut finished = in_flight.pop_front().expect("front exists").sample;
        finished.done_us = micros(epoch);
        finished.outcome = flatten(outcome);
        done.push(finished);
    }
}

/// Open loop: `requests[i]` is sent at `schedule[i]` whether or not
/// earlier ones have completed, alternating over the connections, and its
/// latency counts from that due time.
pub fn open_loop(clients: &[WireClient], requests: &[Request], schedule: &[u64]) -> Pass {
    let epoch = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut in_flight = VecDeque::new();
                    let mut done = Vec::new();
                    let lanes = clients.len();
                    for (request, &due_us) in
                        requests.iter().zip(schedule).skip(lane).step_by(lanes)
                    {
                        loop {
                            let now = micros(epoch);
                            if now >= due_us {
                                break;
                            }
                            let gap = Duration::from_micros(due_us - now);
                            if in_flight.is_empty() {
                                std::thread::sleep(gap);
                            } else {
                                harvest(&mut in_flight, &mut done, epoch, Some(gap));
                            }
                        }
                        let sent_us = micros(epoch);
                        let submitted =
                            client.submit(request.batch.clone(), request.options.clone());
                        let mut sample = Sample {
                            index: request.index,
                            copy: request.copy,
                            due_us,
                            sent_us,
                            submitted_us: micros(epoch),
                            done_us: 0,
                            outcome: Err(String::new()),
                        };
                        match submitted {
                            Ok(handle) => in_flight.push_back(InFlight { sample, handle }),
                            Err(e) => {
                                sample.done_us = sample.submitted_us;
                                sample.outcome = Err(e.to_string());
                                done.push(sample);
                            }
                        }
                    }
                    while !in_flight.is_empty() {
                        harvest(
                            &mut in_flight,
                            &mut done,
                            epoch,
                            Some(Duration::from_secs(1)),
                        );
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    Pass::collect(samples, epoch)
}
