//! Offline stand-in for `crossbeam`.
//!
//! Implements the `crossbeam::channel` API subset raincore uses — unbounded
//! *and* bounded MPMC channels with clonable senders *and* receivers — on a
//! `Mutex<VecDeque>` + `Condvar` pair. Disconnection semantics match the
//! real crate: `send` fails once every receiver is gone; `recv` fails once
//! every sender is gone *and* the queue is drained. On a bounded channel
//! `send` blocks while the queue is at capacity and `try_send` reports
//! `Full` — the backpressure the UDP runtime's command queue relies on.
//! (One divergence: a zero-capacity rendezvous channel is approximated as
//! capacity 1; raincore never creates one.)

// `recv_timeout` waits on the wall clock by definition: this is the
// real-time runtime's channel, never the protocol's (root `clippy.toml`).
#![allow(clippy::disallowed_types)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `None` = unbounded; `Some(cap)` = at most `cap` queued values.
        cap: Option<usize>,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signaled when a value is queued (wakes receivers) or when the
        /// side counts change.
        ready: Condvar,
        /// Signaled when a value is dequeued (wakes blocked bounded
        /// senders).
        space: Condvar,
    }

    fn channel_with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel_with_cap(None)
    }

    /// Create a bounded MPMC channel holding at most `cap` values (a
    /// requested capacity of 0 is rounded up to 1). `send` blocks while
    /// full; `try_send` returns [`TrySendError::Full`].
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel_with_cap(Some(cap.max(1)))
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match st.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self
                            .shared
                            .space
                            .wait(st)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    _ => {
                        st.queue.push_back(value);
                        drop(st);
                        self.shared.ready.notify_one();
                        return Ok(());
                    }
                }
            }
        }

        /// Never blocks: a bounded channel at capacity reports `Full`,
        /// disconnection reports `Disconnected`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = st.cap {
                if st.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.shared.space.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            match st.queue.pop_front() {
                Some(v) => {
                    drop(st);
                    self.shared.space.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.shared.space.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }

        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.shared.space.notify_all();
            }
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx2, rx2) = unbounded::<u32>();
            drop(rx2);
            assert!(tx2.send(1).is_err());
            assert!(matches!(
                tx2.try_send(1),
                Err(TrySendError::Disconnected(1))
            ));
        }

        #[test]
        fn timeout_and_threads() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            let h = std::thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
            h.join().unwrap();
        }

        #[test]
        fn bounded_try_send_full_and_blocking_send() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
            // A blocked send completes once a receiver makes room.
            let h = std::thread::spawn(move || tx.send(3).unwrap());
            assert_eq!(rx.recv(), Ok(1));
            h.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn bounded_sender_unblocks_on_receiver_drop() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let h = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert!(h.join().unwrap().is_err());
        }

        #[test]
        fn mpmc_clone_both_sides() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            let rx2 = rx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            let a = rx.recv().unwrap();
            let b = rx2.recv().unwrap();
            let mut got = [a, b];
            got.sort_unstable();
            assert_eq!(got, [1, 2]);
        }
    }
}
