//! I/O abstraction for the serving stack: [`Conn`] (a bidirectional
//! byte stream), [`Transport`] (the server's accept side), and
//! [`Connector`] (the client's dial side).
//!
//! The server and loadgen were originally hard-wired to `TcpStream`;
//! these traits carry exactly the operations they used, so
//! [`TcpTransport`] / [`TcpConnector`] are thin forwarding shims and
//! the deterministic in-memory implementation ([`crate::sim`]) can slot
//! in underneath the unchanged session and worker machinery.
//!
//! Design constraints that shaped the traits:
//!
//! * `Conn: Read + Write` so [`crate::protocol::FrameReader`] and
//!   `write_bytes` work on any implementation unchanged.
//! * `try_clone` because every session splits its connection into a
//!   read half (owned by the reader thread's `FrameReader`) and a write
//!   half (inside the `SessionWriter` mutex).
//! * Timeouts are best-effort hints: the in-memory transport services
//!   reads with short bounded waits regardless, because under virtual
//!   time a "25 ms" read timeout is a poll-granularity knob, not a
//!   semantic deadline.

use crate::protocol::FrameReader;
use fmml_obs::log_event;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A session's bidirectional byte stream. Implemented by `TcpStream`
/// and by the in-memory simulated connection ([`crate::sim::SimConn`]).
pub trait Conn: Read + Write + Send + Sized + 'static {
    /// A second handle to the same connection (read/write halves).
    fn try_clone(&self) -> io::Result<Self>;
    /// Tear down both directions; pending and future I/O fails.
    fn shutdown_both(&self);
    /// How long a `read` may block before returning `WouldBlock`.
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// How long a `write` may block before returning `WouldBlock`.
    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// Disable Nagle where that concept exists (no-op otherwise).
    fn set_nodelay(&self, _on: bool) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for TcpStream {
    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn shutdown_both(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, t)
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, t)
    }

    fn set_nodelay(&self, on: bool) -> io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }
}

/// One poll of a transport's accept side.
pub enum Accepted<C> {
    /// A new connection.
    Conn(C),
    /// Nothing pending right now; poll again after checking shutdown.
    Retry,
    /// The transport is gone; the acceptor should exit.
    Closed,
}

/// The server's accept side. `accept` either polls (`Retry` when
/// nothing is pending: the acceptor checks for shutdown in between) or
/// blocks, and then names in [`wake_addr`](Transport::wake_addr) the
/// address a shutdown connects to so that it returns.
pub trait Transport: Send + Sync + 'static {
    type Conn: Conn;
    fn accept(&self) -> Accepted<Self::Conn>;
    /// Human-readable endpoint description (logs).
    fn desc(&self) -> String;
    /// Where a connect wakes a blocked `accept`; `None` for a polling
    /// transport.
    fn wake_addr(&self) -> Option<SocketAddr> {
        None
    }
}

/// Socket write timeout of server sessions and router links: a write
/// blocked longer than this marks the peer a slow reader, and the
/// session or link is killed rather than letting one slow reader wedge
/// a thread. A constant because no server or router has run another
/// value.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Set `conn` up for a session — read poll granularity, write timeout,
/// no Nagle — and split it: a frame reader (capped at
/// [`crate::protocol::MAX_FRAME_LEN`]) on a clone, and the original for
/// writing.
pub fn split<C: Conn>(
    conn: C,
    read_timeout: Duration,
    write_timeout: Duration,
) -> Option<(FrameReader<C>, C)> {
    let _ = conn.set_read_timeout(Some(read_timeout));
    let _ = conn.set_write_timeout(Some(write_timeout));
    let _ = conn.set_nodelay(true);
    let reader = FrameReader::new(conn.try_clone().ok()?);
    Some((reader, conn))
}

/// An endpoint's threads, joined at shutdown. Finished ones are dropped
/// as new ones arrive, so a long-running endpoint does not keep one
/// handle per connection it ever accepted.
#[derive(Default)]
pub struct Threads(Mutex<Vec<JoinHandle<()>>>);

impl Threads {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn track(&self, h: JoinHandle<()>) {
        let mut threads = self.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(h);
    }

    fn reap(&self) {
        self.lock().retain(|t| !t.is_finished());
    }

    /// Join every thread, including any a joined one started.
    pub fn join_all(&self) {
        loop {
            let drained = std::mem::take(&mut *self.lock());
            if drained.is_empty() {
                return;
            }
            for t in drained {
                let _ = t.join();
            }
        }
    }
}

/// A running acceptor: its thread, and where a connect wakes it.
pub struct Acceptor {
    thread: JoinHandle<()>,
    wake: Option<SocketAddr>,
}

impl Acceptor {
    /// Wait for the acceptor to end; call once `stop()` holds. A blocked
    /// accept is woken by one connect to the listener's own address,
    /// which the acceptor takes for the shutdown it is.
    pub fn join(self) {
        if let Some(addr) = self.wake {
            let _ = TcpStream::connect(addr);
        }
        let _ = self.thread.join();
    }
}

/// The acceptor of every endpoint, on a thread named `{name}-acceptor`:
/// each connection gets a `{name}-session` thread, tracked in
/// `threads`, running the body `session` returns for it. `session`
/// runs on the acceptor thread, so a driver can account a connection
/// before its thread starts. The loop ends when the transport closes,
/// or when `stop()` holds once a connection arrives or a poll finds
/// none waiting.
pub fn spawn_acceptor<T, F>(
    transport: T,
    name: &str,
    threads: Arc<Threads>,
    stop: impl Fn() -> bool + Send + 'static,
    session: impl Fn(T::Conn) -> F + Send + 'static,
) -> Acceptor
where
    T: Transport,
    F: FnOnce() + Send + 'static,
{
    let session_name = format!("{name}-session");
    let listening = format!("{name}.listening");
    let wake = transport.wake_addr();
    let thread = std::thread::Builder::new()
        .name(format!("{name}-acceptor"))
        .spawn(move || {
            log_event!(listening.as_str(), "addr" = transport.desc().as_str());
            loop {
                match transport.accept() {
                    Accepted::Conn(_) if stop() => break,
                    Accepted::Conn(conn) => {
                        let h = std::thread::Builder::new()
                            .name(session_name.clone())
                            .spawn(session(conn))
                            .expect("spawn session");
                        threads.track(h);
                    }
                    Accepted::Retry => {
                        if stop() {
                            break;
                        }
                        threads.reap();
                        // Poll cadence, not semantic time: stays on the
                        // real clock even under virtual time.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Accepted::Closed => break,
                }
            }
        })
        .expect("spawn acceptor");
    Acceptor { thread, wake }
}

/// The client's dial side (`crate::loadgen` and tests).
pub trait Connector: Send + Sync {
    type Conn: Conn;
    fn connect(&self) -> io::Result<Self::Conn>;
    fn desc(&self) -> String;
}

/// Blocking `TcpListener` wrapper — the production transport. An idle
/// acceptor sleeps in `accept`; shutdown wakes it through
/// [`Transport::wake_addr`].
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Bind `addr` (port `0` picks an ephemeral port — see
    /// [`TcpTransport::addr`]).
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    type Conn = TcpStream;

    fn accept(&self) -> Accepted<TcpStream> {
        match self.listener.accept() {
            Ok((stream, _peer)) => Accepted::Conn(stream),
            // A transient error (out of descriptors, an aborted
            // handshake): check shutdown, back off briefly, accept again.
            Err(_) => Accepted::Retry,
        }
    }

    fn desc(&self) -> String {
        self.addr.to_string()
    }

    /// The bound address, on loopback if it was bound to all interfaces.
    fn wake_addr(&self) -> Option<SocketAddr> {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        Some(addr)
    }
}

/// Dials a fixed TCP address — the production connector.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    pub addr: String,
}

impl Connector for TcpConnector {
    type Conn = TcpStream;

    fn connect(&self) -> io::Result<TcpStream> {
        TcpStream::connect(&self.addr)
    }

    fn desc(&self) -> String {
        self.addr.clone()
    }
}
