//! Channel-based all-to-all communicator with volume accounting.
//!
//! This exists **only** to implement the *communicating* baseline
//! (Holtgrewe et al.'s distributed RGG generator, §3.2), whose point-sort
//! and border-exchange phases are the very cost the paper's generators
//! eliminate. The per-PE exchanged byte count is tracked so the Fig. 9
//! comparison can report communication volume alongside time.
//!
//! Messages carry a round number: successive collective calls are matched
//! by round, so a fast peer entering round `k+1` cannot corrupt a slow
//! peer still completing round `k` (the MPI tag-matching discipline).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Factory for the endpoints of a P-party communicator.
#[derive(Debug)]
pub struct Communicator;

type Packet<T> = (usize, u64, Vec<T>);

/// One party's handle: senders to everyone plus its own receiver.
pub struct Endpoint<T> {
    rank: usize,
    round: u64,
    senders: Vec<Sender<Packet<T>>>,
    receiver: Receiver<Packet<T>>,
    /// Early arrivals from peers already in a later round.
    pending: Vec<Packet<T>>,
    bytes_sent: Arc<AtomicU64>,
}

// Manual impl: channel handles have no useful `Debug`; identify the
// endpoint by its coordinates instead.
impl<T> std::fmt::Debug for Endpoint<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("round", &self.round)
            .field("parties", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl Communicator {
    /// Create `p` endpoints sharing one volume counter.
    pub fn endpoints<T>(p: usize) -> (Vec<Endpoint<T>>, Arc<AtomicU64>) {
        let bytes = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = channel();
            senders.push(s);
            receivers.push(r);
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Endpoint {
                rank,
                round: 0,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
                bytes_sent: Arc::clone(&bytes),
            })
            .collect();
        (endpoints, bytes)
    }
}

impl<T: Send> Endpoint<T> {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.senders.len()
    }

    /// Personalized all-to-all: `outgoing[i]` goes to rank `i`; returns the
    /// messages received, indexed by source rank. Every rank must call this
    /// collectively and the same number of times (like `MPI_Alltoallv`).
    pub fn all_to_all(&mut self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.parties();
        assert_eq!(outgoing.len(), p, "need one message per rank");
        let round = self.round;
        self.round += 1;
        for (dest, msg) in outgoing.into_iter().enumerate() {
            if dest != self.rank {
                self.bytes_sent.fetch_add(
                    (msg.len() * std::mem::size_of::<T>()) as u64,
                    Ordering::Relaxed,
                );
            }
            self.senders[dest]
                .send((self.rank, round, msg))
                .expect("peer endpoint dropped");
        }
        let mut incoming: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        let mut received = 0;
        // Drain any early arrivals stashed by a previous round's receive
        // loop before blocking on the channel.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1 == round {
                let (src, _, msg) = self.pending.swap_remove(i);
                assert!(incoming[src].is_none(), "duplicate message from {src}");
                incoming[src] = Some(msg);
                received += 1;
            } else {
                i += 1;
            }
        }
        while received < p {
            let (src, r, msg) = self.receiver.recv().expect("channel closed");
            if r != round {
                debug_assert!(r > round, "message from a past round");
                self.pending.push((src, r, msg));
                continue;
            }
            assert!(incoming[src].is_none(), "duplicate message from {src}");
            incoming[src] = Some(msg);
            received += 1;
        }
        incoming.into_iter().map(|m| m.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_routes_correctly() {
        let p = 4;
        let (endpoints, bytes) = Communicator::endpoints::<u64>(p);
        let results: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|mut ep| {
                    scope.spawn(move || {
                        let outgoing: Vec<Vec<u64>> =
                            (0..p).map(|d| vec![(ep.rank() * 10 + d) as u64]).collect();
                        ep.all_to_all(outgoing)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Rank r receives from source s the value s*10 + r.
        for (r, incoming) in results.iter().enumerate() {
            for (s, msg) in incoming.iter().enumerate() {
                assert_eq!(msg, &vec![(s * 10 + r) as u64]);
            }
        }
        // 4 ranks × 3 remote messages × 8 bytes.
        assert_eq!(bytes.load(Ordering::Relaxed), 4 * 3 * 8);
    }

    #[test]
    fn self_messages_free() {
        let (endpoints, bytes) = Communicator::endpoints::<u8>(1);
        let mut ep = endpoints.into_iter().next().unwrap();
        let incoming = ep.all_to_all(vec![vec![1, 2, 3]]);
        assert_eq!(incoming, vec![vec![1, 2, 3]]);
        assert_eq!(bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_messages() {
        let p = 3;
        let (endpoints, _) = Communicator::endpoints::<u64>(p);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|mut ep| scope.spawn(move || ep.all_to_all(vec![vec![], vec![], vec![]])))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for incoming in results {
            assert_eq!(incoming.len(), p);
            assert!(incoming.iter().all(|m| m.is_empty()));
        }
    }

    #[test]
    fn successive_rounds_do_not_mix() {
        // A fast peer racing ahead into round 2 must not corrupt a slow
        // peer's round-1 receive (the deadlock this module once had).
        let p = 4;
        let rounds = 50;
        let (endpoints, _) = Communicator::endpoints::<u64>(p);
        let ok = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|mut ep| {
                    scope.spawn(move || {
                        for round in 0..rounds {
                            let outgoing: Vec<Vec<u64>> = (0..p)
                                .map(|d| vec![round * 1000 + (ep.rank() * 10 + d) as u64])
                                .collect();
                            let incoming = ep.all_to_all(outgoing);
                            for (s, msg) in incoming.iter().enumerate() {
                                assert_eq!(
                                    msg,
                                    &vec![round * 1000 + (s * 10 + ep.rank()) as u64],
                                    "round {round} corrupted"
                                );
                            }
                        }
                        true
                    })
                })
                .collect();
            handles.into_iter().all(|h| h.join().unwrap())
        });
        assert!(ok);
    }
}
