//! Offline stand-in for the `crossbeam` crate: just the bounded-channel
//! subset the threaded runtime host and the harness's worker pools use.
//!
//! A bounded channel here is a `Mutex<VecDeque<T>>` with two `Condvar`s.
//! Its capacity is a limit on how many messages may be queued at once,
//! not storage: the queue starts empty, allocates as the backlog grows
//! and keeps its high-water allocation. `bounded(65_536)` therefore
//! costs about a hundred bytes until messages actually queue up, where
//! a preallocated ring (as `std::sync::mpsc::sync_channel` builds)
//! writes every slot up front.

#![forbid(unsafe_code)]

/// Multi-producer channels (API subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// Receive-with-timeout failure.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Every sender has been dropped and the queue is empty.
        Disconnected,
    }

    /// Non-blocking send failure; either way the message is handed back.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel holds `cap` messages already.
        Full(T),
        /// The receiver has been dropped.
        Disconnected(T),
    }

    /// Send failure (receiver dropped); the message is handed back.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver: bool,
        /// Senders parked in `send` on a full queue, and whether the
        /// receiver is parked in `recv_timeout`: a wake-up is only
        /// signalled to someone who waits for it.
        blocked_senders: usize,
        receiver_waiting: bool,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message is queued or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when a slot frees or the receiver leaves.
        not_full: Condvar,
        cap: usize,
    }

    impl<T> Shared<T> {
        /// Every critical section leaves `State` valid (one push, one
        /// pop or one counter update), so a panic elsewhere while the
        /// lock was held cannot have broken it: recover from poisoning.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn push(&self, st: &mut State<T>, msg: T) {
            st.queue.push_back(msg);
            if st.receiver_waiting {
                self.not_empty.notify_one();
            }
        }
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocking send: waits until a slot frees, then queues `msg`.
        /// Errors only if the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let shared = &*self.0;
            let mut st = shared.lock();
            while st.receiver && st.queue.len() >= shared.cap {
                st.blocked_senders += 1;
                st = shared
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.blocked_senders -= 1;
            }
            if !st.receiver {
                return Err(SendError(msg));
            }
            shared.push(&mut st, msg);
            Ok(())
        }

        /// Non-blocking send: queues `msg`, or hands it back inside
        /// [`TrySendError::Full`] when `cap` messages are queued already
        /// or [`TrySendError::Disconnected`] when the receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let shared = &*self.0;
            let mut st = shared.lock();
            if !st.receiver {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.queue.len() >= shared.cap {
                return Err(TrySendError::Full(msg));
            }
            shared.push(&mut st, msg);
            Ok(())
        }

        /// How many senders are parked in [`Sender::send`] right now.
        #[cfg(test)]
        pub(crate) fn blocked_senders(&self) -> usize {
            self.0.lock().blocked_senders
        }
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let queued = {
                let mut st = self.0.lock();
                st.receiver = false;
                std::mem::take(&mut st.queue)
            };
            self.0.not_full.notify_all();
            // Undelivered messages are dropped outside the lock.
            drop(queued);
        }
    }

    impl<T> Receiver<T> {
        /// Waits up to `timeout` for a message. Queued messages are still
        /// delivered after every sender is gone; `Disconnected` follows
        /// once the queue is empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let shared = &*self.0;
            let deadline = Instant::now().checked_add(timeout);
            let mut st = shared.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    if st.blocked_senders > 0 {
                        shared.not_full.notify_one();
                    }
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                // An unrepresentable deadline waits in `Duration::MAX`
                // steps, i.e. for good.
                let left = match deadline {
                    Some(at) => at.saturating_duration_since(Instant::now()),
                    None => Duration::MAX,
                };
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.receiver_waiting = true;
                st = shared
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                st.receiver_waiting = false;
            }
        }
    }

    /// Creates a channel that holds at most `cap` queued messages.
    ///
    /// `cap` is a limit, not storage: nothing is allocated for the queue
    /// until a message arrives. A full channel makes `try_send` return
    /// [`TrySendError::Full`] and `send` wait for a slot. With `cap == 0`
    /// no message is ever queued (this shim has no rendezvous hand-off):
    /// `try_send` reports `Full` and `send` returns only once the
    /// receiver is gone.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receiver: true,
                blocked_senders: 0,
                receiver_waiting: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (Sender(shared.clone()), Receiver(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvTimeoutError, SendError, TrySendError};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn roundtrip_and_timeout() {
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn exactly_cap_try_sends_fit_and_one_recv_frees_one_slot() {
        let cap = 100;
        let (tx, rx) = bounded(cap);
        for i in 0..cap {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(cap), Err(TrySendError::Full(cap)));
        assert_eq!(rx.recv_timeout(WAIT), Ok(0));
        tx.try_send(cap).unwrap();
        assert_eq!(tx.try_send(cap + 1), Err(TrySendError::Full(cap + 1)));
        for want in 1..=cap {
            assert_eq!(rx.recv_timeout(WAIT), Ok(want));
        }
    }

    #[test]
    fn blocked_send_wakes_when_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let probe = tx.clone();
        let sender = thread::spawn(move || tx.send(1).unwrap());
        // Receive only once the sender is parked on the full queue.
        while probe.blocked_senders() == 0 {
            thread::yield_now();
        }
        assert_eq!(rx.recv_timeout(WAIT), Ok(0));
        assert_eq!(rx.recv_timeout(WAIT), Ok(1));
        sender.join().unwrap();
    }

    #[test]
    fn fifo_holds_for_two_producers_across_growth() {
        // 5,000 messages per producer into a 10,000-slot channel: the
        // queue doubles its storage a dozen times while both write.
        let per = 5_000u32;
        let (tx, rx) = bounded(2 * per as usize);
        let start = Arc::new(Barrier::new(2));
        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let tx = tx.clone();
                let start = start.clone();
                thread::spawn(move || {
                    start.wait();
                    for i in 0..per {
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for h in producers {
            h.join().unwrap();
        }
        let mut next = [0u32; 2];
        while let Ok((p, i)) = rx.recv_timeout(WAIT) {
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        assert_eq!(next, [per, per]);
    }

    #[test]
    fn disconnect_is_reported_on_both_sides() {
        let (tx, rx) = bounded::<u8>(4);
        tx.send(7).unwrap();
        drop(tx);
        // Queued messages outlive the senders; then the disconnect shows.
        assert_eq!(rx.recv_timeout(WAIT), Ok(7));
        assert_eq!(rx.recv_timeout(WAIT), Err(RecvTimeoutError::Disconnected));

        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(2), Err(TrySendError::Disconnected(2)));
        assert_eq!(tx.send(3), Err(SendError(3)));
    }

    #[test]
    fn receiver_drop_releases_a_blocked_send() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let probe = tx.clone();
        let sender = thread::spawn(move || tx.send(1));
        while probe.blocked_senders() == 0 {
            thread::yield_now();
        }
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(SendError(1)));
    }

    #[test]
    fn recv_timeout_times_out_while_senders_live() {
        let (tx, rx) = bounded::<u8>(8);
        let t0 = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
        drop(tx);
    }

    #[test]
    fn zero_capacity_neither_panics_nor_deadlocks_when_unused() {
        let (tx, rx) = bounded::<u8>(0);
        let worker = tx.clone();
        drop(worker);
        assert_eq!(tx.try_send(1), Err(TrySendError::Full(1)));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
