//! Asynchronous admission front-end: an mpsc queue in front of a service
//! thread that coalesces consecutive what-if requests into one executor
//! batch.
//!
//! The core [`WhatIfService`] is synchronous: callers that hold it can
//! batch queries themselves. A scheduler integrating the service as a
//! sidecar wants a channel instead — requests arrive one at a time from
//! many places, and the service thread re-discovers the batching: every
//! run of consecutive [`ServeRequest::WhatIf`] messages sitting in the
//! queue is drained and answered as a single [`WhatIfService::what_if_batch`]
//! call (one snapshot check, one executor fan-out), while admissions and
//! clock advances act as natural barriers, exactly where the snapshot
//! would be invalidated anyway.

use crate::service::{ServeError, ServeStats, WhatIfAnswer, WhatIfQuery, WhatIfService};
use netbw_fluid::{CompletedTransfer, TransferKey};
use netbw_graph::Communication;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A message on the admission queue. Public so integrations can speak the
/// wire format directly; [`ServeHandle`] wraps the common calls.
pub enum ServeRequest {
    /// Admit a transfer into the authoritative engine.
    Admit {
        /// The transfer to admit.
        comm: Communication,
        /// Absolute start time on the service clock.
        start: f64,
        /// Receives the assigned key, or the typed rejection.
        reply: Sender<Result<TransferKey, ServeError>>,
    },
    /// Advance the authoritative clock.
    Advance {
        /// Target clock value.
        t: f64,
        /// Receives the transfers that completed on the way.
        reply: Sender<Result<Vec<CompletedTransfer>, ServeError>>,
    },
    /// A speculative placement query (coalesced with its queue
    /// neighbours into one batch).
    WhatIf {
        /// The query.
        query: WhatIfQuery,
        /// Receives the answer.
        reply: Sender<Result<WhatIfAnswer, ServeError>>,
    },
    /// Read the service counters.
    Stats {
        /// Receives the counters.
        reply: Sender<ServeStats>,
    },
    /// Stop the service thread (it returns the [`WhatIfService`]).
    Shutdown,
}

/// A clonable client of a spawned service thread. All methods are
/// synchronous request/response over the queue; [`ServeError::ServiceStopped`]
/// signals that the thread has shut down.
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<ServeRequest>,
}

impl ServeHandle {
    /// Sends `req` and waits for `reply_rx`, mapping a dead service
    /// thread to [`ServeError::ServiceStopped`].
    fn roundtrip<R>(
        &self,
        req: ServeRequest,
        reply_rx: Receiver<Result<R, ServeError>>,
    ) -> Result<R, ServeError> {
        self.tx.send(req).map_err(|_| ServeError::ServiceStopped)?;
        reply_rx.recv().unwrap_or(Err(ServeError::ServiceStopped))
    }

    /// [`WhatIfService::admit`] over the queue.
    pub fn admit(&self, comm: Communication, start: f64) -> Result<TransferKey, ServeError> {
        let (reply, rx) = channel();
        self.roundtrip(ServeRequest::Admit { comm, start, reply }, rx)
    }

    /// [`WhatIfService::advance_to`] over the queue.
    pub fn advance_to(&self, t: f64) -> Result<Vec<CompletedTransfer>, ServeError> {
        let (reply, rx) = channel();
        self.roundtrip(ServeRequest::Advance { t, reply }, rx)
    }

    /// [`WhatIfService::what_if`] over the queue. Concurrent callers'
    /// queries coalesce into one executor batch on the service thread.
    pub fn what_if(&self, query: WhatIfQuery) -> Result<WhatIfAnswer, ServeError> {
        let (reply, rx) = channel();
        self.roundtrip(ServeRequest::WhatIf { query, reply }, rx)
    }

    /// [`WhatIfService::stats`] over the queue.
    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(ServeRequest::Stats { reply })
            .map_err(|_| ServeError::ServiceStopped)?;
        rx.recv().map_err(|_| ServeError::ServiceStopped)
    }

    /// Asks the service thread to stop. Join the handle returned by
    /// [`WhatIfService::spawn`] to get the service (and its final stats)
    /// back.
    pub fn shutdown(&self) {
        let _ = self.tx.send(ServeRequest::Shutdown);
    }
}

impl WhatIfService {
    /// Moves the service onto its own thread behind an mpsc admission
    /// queue. Returns the client handle and the join handle (which yields
    /// the service back on shutdown, for final stats inspection). The
    /// thread also stops when every [`ServeHandle`] clone is dropped.
    pub fn spawn(self) -> (ServeHandle, JoinHandle<WhatIfService>) {
        let (tx, rx) = channel::<ServeRequest>();
        let thread = std::thread::spawn(move || {
            self.serve(rx);
            self
        });
        (ServeHandle { tx }, thread)
    }

    /// The service loop: drains the queue, coalescing what-if runs.
    fn serve(&self, rx: Receiver<ServeRequest>) {
        // A non-what-if request that ended a coalescing drain, waiting to
        // be handled on the next loop turn.
        let mut carried: Option<ServeRequest> = None;
        loop {
            let req = match carried.take() {
                Some(req) => req,
                None => match rx.recv() {
                    Ok(req) => req,
                    Err(_) => return, // all handles dropped
                },
            };
            let (query, reply) = match req {
                ServeRequest::WhatIf { query, reply } => (query, reply),
                other => {
                    if !self.handle_one(other) {
                        return;
                    }
                    continue;
                }
            };
            // Coalesce the run of what-if requests at the head of the
            // queue into one batch; the first other request is carried.
            let mut queries = vec![query];
            let mut replies = vec![reply];
            while let Ok(next) = rx.try_recv() {
                match next {
                    ServeRequest::WhatIf { query, reply } => {
                        queries.push(query);
                        replies.push(reply);
                    }
                    other => {
                        carried = Some(other);
                        break;
                    }
                }
            }
            for (reply, answer) in replies.into_iter().zip(self.what_if_batch(&queries)) {
                let _ = reply.send(answer); // receiver may have given up
            }
        }
    }

    /// Handles one non-what-if request; `false` means shutdown.
    fn handle_one(&self, req: ServeRequest) -> bool {
        match req {
            ServeRequest::Admit { comm, start, reply } => {
                let _ = reply.send(self.admit(comm, start));
            }
            ServeRequest::Advance { t, reply } => {
                let _ = reply.send(self.advance_to(t));
            }
            ServeRequest::Stats { reply } => {
                let _ = reply.send(self.stats());
            }
            ServeRequest::WhatIf { .. } => unreachable!("coalesced by the serve loop"),
            ServeRequest::Shutdown => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use netbw_fluid::NetworkParams;
    use netbw_packet::FabricConfig;

    fn tiny() -> WhatIfService {
        WhatIfService::new(ServeConfig {
            params: NetworkParams::new(2.0, 0.25),
            fabric: FabricConfig::gige(),
            threads: 2,
        })
    }

    #[test]
    fn roundtrips_through_the_queue() {
        let (handle, thread) = tiny().spawn();
        let key = handle
            .admit(Communication::new(0u32, 1u32, 400), 0.0)
            .unwrap();
        assert_eq!(key, 0);
        assert!(handle.advance_to(1.0).unwrap().is_empty());
        let answer = handle
            .what_if(WhatIfQuery::flow(Communication::new(2u32, 3u32, 400), 0.0))
            .unwrap();
        assert_eq!(answer.flows[0].elapsed, 0.25 + 200.0);
        assert!(matches!(
            handle.advance_to(0.5),
            Err(ServeError::NonMonotonicClock { .. })
        ));
        handle.shutdown();
        let service = thread.join().expect("service thread");
        assert_eq!(service.stats().admitted, 1);
        assert_eq!(service.stats().queries, 1);
        // the queue is closed once the service returns
        assert_eq!(
            handle.what_if(WhatIfQuery::flow(Communication::new(0u32, 1u32, 1), 0.0)),
            Err(ServeError::ServiceStopped)
        );
    }

    #[test]
    fn concurrent_queries_coalesce_and_answer_like_direct_calls() {
        let service = tiny();
        service
            .admit(Communication::new(0u32, 1u32, 2_000), 0.0)
            .unwrap();
        service.advance_to(1.0).unwrap();
        let queries: Vec<WhatIfQuery> = (0..10u64)
            .map(|i| WhatIfQuery::flow(Communication::new((i % 4) as u32, 1u32, 300 + i), 0.1))
            .collect();
        let direct = service.what_if_batch(&queries);

        let (handle, thread) = tiny().spawn();
        handle
            .admit(Communication::new(0u32, 1u32, 2_000), 0.0)
            .unwrap();
        handle.advance_to(1.0).unwrap();
        let answers: Vec<_> = {
            let clients: Vec<_> = queries
                .iter()
                .map(|q| {
                    let handle = handle.clone();
                    let q = q.clone();
                    std::thread::spawn(move || handle.what_if(q))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        };
        handle.shutdown();
        thread.join().expect("service thread");
        for (a, d) in answers.iter().zip(&direct) {
            let (a, d) = (a.as_ref().unwrap(), d.as_ref().unwrap());
            assert_eq!(a.makespan.to_bits(), d.makespan.to_bits());
        }
    }
}
