//! Readiness polling without external crates.
//!
//! The reactor needs three OS facilities the standard library does not
//! expose: a readiness multiplexer (`epoll` on Linux, POSIX `poll`
//! elsewhere), a cross-thread wakeup fd (`eventfd` / a pipe), and — for
//! the 10k-connection soak — `setrlimit(RLIMIT_NOFILE)`. All three are
//! thin `extern "C"` declarations against the libc the standard library
//! already links; no new dependency is introduced.
//!
//! [`Poller`] is intentionally minimal and **level-triggered**: `wait`
//! reports an fd readable/writable for as long as it stays so, which
//! keeps the reactor's state machine honest — nothing is lost if a wake
//! services only part of the pending bytes, the next `wait` simply
//! reports the fd again. Every fd is identified by a caller-chosen `u64`
//! token (the reactor uses connection ids).

use std::io;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable — includes error/hang-up conditions, which a subsequent
    /// `read` surfaces as `Ok(0)` or an error (the uniform close path).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Raises the process soft fd limit to at least `n` (up to the hard
/// limit, or beyond it when privileged). Returns the resulting soft
/// limit. The 10k-connection soak needs ~2 fds per connection.
pub fn raise_nofile_limit(n: u64) -> io::Result<u64> {
    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    unsafe {
        let mut lim = Rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.rlim_cur >= n {
            return Ok(lim.rlim_cur);
        }
        // Privileged processes may raise the hard limit too.
        let want = Rlimit {
            rlim_cur: n,
            rlim_max: lim.rlim_max.max(n),
        };
        if setrlimit(RLIMIT_NOFILE, &want) == 0 {
            return Ok(n);
        }
        // Unprivileged: settle for the hard limit.
        let capped = Rlimit {
            rlim_cur: lim.rlim_max,
            rlim_max: lim.rlim_max,
        };
        if setrlimit(RLIMIT_NOFILE, &capped) == 0 {
            return Ok(capped.rlim_cur);
        }
        Err(io::Error::last_os_error())
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut ev = EPOLLRDHUP;
        if readable {
            ev |= EPOLLIN;
        }
        if writable {
            ev |= EPOLLOUT;
        }
        ev
    }

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(r, w),
                data: token,
            };
            let arg = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, arg) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        /// Blocks up to `timeout` and appends readiness reports to `out`.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n =
                unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// Cross-thread wakeup: an eventfd registered in the owning reactor's
    /// poller. `wake` may be called from any thread.
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Waker { fd })
        }

        pub fn fd(&self) -> RawFd {
            self.fd
        }

        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
        }

        /// Clears the pending wakeup count (called by the reactor).
        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    //! POSIX `poll` fallback for non-Linux unix (kqueue would be the
    //! native choice on the BSDs; `poll` keeps this path dependency-free
    //! and is plenty for the connection counts tested off-Linux).

    use super::Event;
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    pub struct Poller {
        interest: HashMap<RawFd, (u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                interest: HashMap::new(),
            })
        }

        pub fn add(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interest.insert(fd, (token, readable, writable));
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interest.insert(fd, (token, readable, writable));
            Ok(())
        }

        pub fn del(&mut self, fd: RawFd) -> io::Result<()> {
            self.interest.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .interest
                .iter()
                .map(|(&fd, &(_, r, w))| PollFd {
                    fd,
                    events: if r { POLLIN } else { 0 } | if w { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for p in &fds {
                if p.revents == 0 {
                    continue;
                }
                let (token, _, _) = self.interest[&p.fd];
                out.push(Event {
                    token,
                    readable: p.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: p.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    pub struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            const F_SETFL: i32 = 4;
            const O_NONBLOCK: i32 = 0o4000;
            unsafe {
                fcntl(fds[0], F_SETFL, O_NONBLOCK);
                fcntl(fds[1], F_SETFL, O_NONBLOCK);
            }
            Ok(Waker {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub fn fd(&self) -> RawFd {
            self.read_fd
        }

        pub fn wake(&self) {
            let one = [1u8];
            unsafe { write(self.write_fd, one.as_ptr(), 1) };
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("ms-net's reactor front-end requires a unix platform (epoll or poll)");

pub use imp::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn poller_reports_readable_after_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(rx.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "nothing written yet");

        tx.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(&mut events, Duration::from_millis(20)).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: still reported until the bytes are consumed.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(20)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut rx = rx;
        let mut buf = [0u8; 8];
        let n = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi");
    }

    #[test]
    fn waker_crosses_threads() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 0, true, false).unwrap();
        let w = std::sync::Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        waker.drain();
        h.join().unwrap();
    }
}
