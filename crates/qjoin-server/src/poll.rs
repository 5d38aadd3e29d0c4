//! The readiness layer: `poll(2)` over the reactor's descriptors, and a wake
//! descriptor any thread can ring.
//!
//! A quiet reactor (see [`crate::server`]) hands [`Poller::block`] the listener
//! and every parked connection and sleeps in the kernel with **no timeout** until
//! one of them is ready (readable, or writable for a reply that waits on its
//! client) or hangs up, or a [`Waker`] rings. There is no tick: an idle server
//! costs nothing, and a request is noticed when the kernel delivers it. `poll` is
//! this crate's one foreign item (std links libc already); it is unix-only.
//!
//! **No lost wake.** A thread reaches the reactor by publishing something the
//! reactor looks at (a message in its inbox, the shutdown flag) and *then* calling
//! [`Waker::wake`], which writes the wake byte only if the reactor has announced
//! a sleep. The reactor mirrors it: [`Poller::announce`], look once more at what
//! wakers publish, only then [`Poller::block`]. Both sides fence between their
//! write and their read, so whichever comes second sees the other; a byte written
//! between announcement and block waits in the socket and ends that block at once.

use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// `poll(2)` over `fds`, retried while a signal interrupts it. Afterwards an
/// entry's `revents` is nonzero if it is readable **or** hung up or failed (the
/// kernel reports those whatever `events` asks for): a read tells which.
fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
    retry_interrupted(|| {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
        // laid out as `struct pollfd`, and the length passed is the slice's own:
        // the kernel reads `fd`/`events` and writes `revents` inside it only, and
        // keeps no pointer once the call returns.
        #[allow(unsafe_code)]
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if ready < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    })
}

/// Runs `call` until it returns anything but `EINTR`.
fn retry_interrupted<T>(mut call: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match call() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// The sleeping half: one thread (the reactor) blocks here.
#[derive(Debug)]
pub struct Poller {
    waker: Waker,
    /// The reading end of the wake descriptor, a nonblocking socket pair.
    ear: UnixStream,
    /// The set handed to `poll`: the wake descriptor, then the caller's sources.
    fds: Vec<PollFd>,
}

/// The waking half: any number of threads can hold a clone (see the module docs).
#[derive(Clone, Debug)]
pub struct Waker {
    /// True from [`Poller::announce`] until the block ends (or is called off).
    sleeping: Arc<AtomicBool>,
    /// The writing end of the wake descriptor.
    bell: Arc<UnixStream>,
}

impl Waker {
    /// Ends the poller's sleep if it has announced one. Call it **after**
    /// publishing what the reactor should find; unless the reactor is (about to
    /// be) asleep it costs a fence and a load.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            // A full socket buffer already holds a wake; nothing else can fail
            // while the poller lives, and after it nobody is left to wake.
            let _ = (&*self.bell).write(&[1]);
        }
    }
}

impl Poller {
    /// A poller with its wake descriptor.
    pub fn new() -> io::Result<Poller> {
        let (ear, bell) = UnixStream::pair()?;
        ear.set_nonblocking(true)?;
        bell.set_nonblocking(true)?;
        let (sleeping, bell) = (Arc::default(), Arc::new(bell));
        let waker = Waker { sleeping, bell };
        let fds = Vec::new();
        Ok(Poller { waker, ear, fds })
    }

    /// A wake handle for this poller.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Publishes that the caller is about to block. The caller then looks once
    /// more at everything wakers publish, and [`block`](Self::block)s or
    /// [`retract`](Self::retract)s.
    pub fn announce(&self) {
        self.waker.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Takes an announcement back: the second look found work.
    pub fn retract(&self) {
        self.waker.sleeping.store(false, Ordering::SeqCst);
    }

    /// Blocks, with no timeout, until a source is ready or closed or a waker
    /// rings; [`flagged`](Self::flagged) then tells which sources it was. A
    /// source is a descriptor and whether it is watched for writing, not reading.
    pub fn block(&mut self, sources: impl IntoIterator<Item = (RawFd, bool)>) -> io::Result<()> {
        let fds = std::iter::once((self.ear.as_raw_fd(), false)).chain(sources);
        let listen = |(fd, write)| PollFd {
            fd,
            events: if write { POLLOUT } else { POLLIN },
            revents: 0,
        };
        self.fds.clear();
        self.fds.extend(fds.map(listen));
        let polled = poll_fds(&mut self.fds, -1); // no timeout
        self.retract();
        if polled.is_ok() && self.fds[0].revents != 0 {
            let mut rung = [0u8; 64];
            while matches!((&self.ear).read(&mut rung), Ok(n) if n > 0) {}
        }
        polled
    }

    /// Whether the last [`block`](Self::block) found its `source`-th source
    /// ready, hung up or failed — in every case, worth a read or a write.
    pub fn flagged(&self, source: usize) -> bool {
        self.fds[source + 1].revents != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    const POLLHUP: c_short = 0x010;

    /// A zero-timeout look at one descriptor: its `revents`.
    fn glance(fd: &impl AsRawFd) -> c_short {
        let mut fds = [PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        poll_fds(&mut fds, 0).unwrap();
        fds[0].revents
    }

    #[test]
    fn block_has_no_timeout_and_flags_only_the_readable_source() {
        let mut poller = Poller::new().unwrap();
        let (mut talker, talked_to) = pair();
        let (_quiet, quiet_end) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            talker.write_all(b"x").unwrap();
            talker
        });
        let start = Instant::now();
        poller.announce();
        let sources = [
            (talked_to.as_raw_fd(), false),
            (quiet_end.as_raw_fd(), false),
        ];
        poller.block(sources).unwrap();
        // Nothing ended the block early: no tick, no spurious wake.
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert!(poller.flagged(0) && !poller.flagged(1));
        writer.join().unwrap();
    }

    #[test]
    fn a_wake_ends_the_block() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let (_client, server) = pair();
        poller.announce();
        let ringer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = Instant::now();
        poller.block([(server.as_raw_fd(), false)]).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(!poller.flagged(0));
        ringer.join().unwrap();
    }

    #[test]
    fn wakes_are_sticky_across_the_race() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        // Before any announcement a wake writes nothing: whatever the waker
        // published first is found by the reactor's look after it announces.
        waker.wake();
        assert_eq!(glance(&poller.ear), 0);
        // A wake that lands between the announcement and the block is not lost:
        // the byte waits in the socket and the block returns at once.
        poller.announce();
        waker.wake();
        assert_eq!(glance(&poller.ear), POLLIN);
        poller.block([]).unwrap();
        // The block consumed the byte and ended the announcement.
        assert_eq!(glance(&poller.ear), 0);
        waker.wake();
        assert_eq!(glance(&poller.ear), 0);
    }

    #[test]
    fn a_hangup_without_data_is_flagged() {
        // The kernel's `POLLHUP` without `POLLIN`, though only `POLLIN` was asked
        // for: the read end of an empty pipe whose writer is gone.
        let (reader, writer) = io::pipe().unwrap();
        assert_eq!(glance(&reader), 0);
        drop(writer);
        assert_eq!(glance(&reader), POLLHUP);
        let mut poller = Poller::new().unwrap();
        poller.announce();
        poller.block([(reader.as_raw_fd(), false)]).unwrap();
        assert!(poller.flagged(0));
    }

    /// A source watched for writing is flagged once its send buffer has room,
    /// and only then. Mutation: watch every source for reading, and the block
    /// never ends.
    #[test]
    fn a_source_watched_for_writing_is_flagged_when_it_has_room() {
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let chunk = vec![0u8; 1 << 16];
        while (&server).write(&chunk).is_ok() {} // fill the send buffer
        let mut poller = Poller::new().unwrap();
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            std::io::copy(&mut &client, &mut std::io::sink())
        });
        let start = Instant::now();
        poller.announce();
        poller.block([(server.as_raw_fd(), true)]).unwrap();
        assert!(poller.flagged(0) && start.elapsed() >= Duration::from_millis(40));
        drop(server);
        reader.join().unwrap().unwrap();
    }

    #[test]
    fn an_interrupted_call_is_retried() {
        let mut calls = 0;
        let result = retry_interrupted(|| {
            calls += 1;
            if calls < 3 {
                Err(io::ErrorKind::Interrupted.into())
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
        // Any other error is the caller's.
        let refused = retry_interrupted(|| Err::<(), _>(io::ErrorKind::InvalidInput.into()));
        assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }
}
