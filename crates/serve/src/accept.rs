//! The one accept loop behind both daemons: `isexd`'s HTTP listener and
//! the cluster coordinator's worker listener.
//!
//! The listener stays blocking, so a connection is handed off the moment
//! it arrives — there is no poll interval for a request to wait out.
//! Shutdown sets a stop flag and wakes the blocked `accept()` with a
//! loopback connection to the bound address; the acceptor sees the flag,
//! drops that connection without serving or counting it, and exits,
//! closing the listener.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wake connections [`Acceptor::shutdown`] tries before detaching.
const WAKE_ATTEMPTS: u32 = 3;
/// Connect timeout of each wake attempt.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);
/// Pause after a failed `accept()` (descriptor exhaustion, say), so a
/// persistent error cannot spin the thread.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(1);

/// A blocking accept loop on its own thread, stoppable from any thread.
///
/// Dropping an `Acceptor` without [`shutdown`](Acceptor::shutdown) leaves
/// the loop running detached.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Starts accepting on `listener` in a thread named `name`. Every
    /// accepted stream gets `TCP_NODELAY` — both protocols exchange small
    /// request/response messages that Nagle would only delay — and is
    /// handed to `serve`, which should hand it off rather than serve it
    /// inline.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        mut serve: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stopped.load(Ordering::Acquire) {
                        // The shutdown wake (or a client racing it).
                        return;
                    }
                    match conn {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            serve(stream);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
                    }
                }
            })?;
        Ok(Acceptor {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the loop; idempotent. The loop is woken
    /// by a loopback connection to the bound address. If no wake gets
    /// through in three tries the thread is detached instead of joined —
    /// it exits at the next connection it accepts — so shutdown never
    /// hangs here.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let target = wake_target(self.addr);
        for _ in 0..WAKE_ATTEMPTS {
            if thread.is_finished() || TcpStream::connect_timeout(&target, WAKE_TIMEOUT).is_ok() {
                let _ = thread.join();
                return;
            }
        }
    }
}

/// Where a wake connection goes: the bound address, with an unspecified
/// IP (`0.0.0.0`, `::`) mapped to loopback of the same family.
fn wake_target(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:8173".parse().unwrap();
        assert_eq!(wake_target(v4), "127.0.0.1:8173".parse().unwrap());
        let v6: SocketAddr = "[::]:8173".parse().unwrap();
        assert_eq!(wake_target(v6), "[::1]:8173".parse().unwrap());
        let bound: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert_eq!(wake_target(bound), bound);
    }
}
