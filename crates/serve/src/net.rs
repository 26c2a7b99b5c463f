//! The daemon's transport layer: one [`Endpoint`] type covering
//! localhost TCP and Unix-domain sockets, with a unified connection
//! and listener so the protocol and server code never branch on the
//! transport.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where a daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7208`. Port `0` binds an
    /// ephemeral port; the resolved endpoint reports the real one.
    Tcp(String),
    /// A Unix-domain socket path, spelled `unix:PATH` on the CLI.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses the CLI spelling: `unix:PATH` or `HOST:PORT`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path after \"unix:\"".into());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.contains(':') {
            Ok(Endpoint::Tcp(s.to_string()))
        } else {
            Err(format!(
                "endpoint {s:?} is neither \"unix:PATH\" nor \"HOST:PORT\""
            ))
        }
    }

    /// Connects a client (or the shutdown self-wake) to this endpoint.
    /// TCP connections disable Nagle's algorithm: every message is one
    /// short line that waits for its reply, so batching it behind the
    /// peer's delayed ACK would only add latency.
    pub fn connect(&self) -> io::Result<Conn> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => f.write_str(addr),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One established connection, over either transport.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Unix(UnixStream),
}

impl Conn {
    /// A second handle onto the same socket (separate read/write
    /// cursors, shared underlying connection).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts both directions down, unblocking any reader on the other
    /// handle.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
#[derive(Debug)]
pub enum AnyListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    Unix(UnixListener),
}

impl AnyListener {
    /// Binds `endpoint`, returning the listener and the **resolved**
    /// endpoint (for TCP, the actual local address — so `:0` requests
    /// report the ephemeral port that was assigned). A stale Unix
    /// socket file at the path is removed first: the daemon owns its
    /// path.
    pub fn bind(endpoint: &Endpoint) -> io::Result<(AnyListener, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let resolved = Endpoint::Tcp(listener.local_addr()?.to_string());
                Ok((AnyListener::Tcp(listener), resolved))
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok((AnyListener::Unix(listener), endpoint.clone()))
            }
        }
    }

    /// Accepts the next connection (TCP ones with Nagle's algorithm
    /// off, as in [`Endpoint::connect`]).
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            AnyListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            AnyListener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing_covers_both_transports() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7208"),
            Ok(Endpoint::Tcp("127.0.0.1:7208".into()))
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("no-port").is_err());
        // Display is the parse spelling.
        for s in ["unix:/tmp/x.sock", "127.0.0.1:7208"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn tcp_bind_resolves_ephemeral_ports() {
        let (listener, resolved) = AnyListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let Endpoint::Tcp(addr) = &resolved else {
            panic!("tcp bind resolved to {resolved:?}");
        };
        assert!(!addr.ends_with(":0"), "{addr} still has port 0");
        // And the resolved endpoint is connectable.
        let client = resolved.connect().unwrap();
        let _served = listener.accept().unwrap();
        client.shutdown().unwrap();
    }

    #[test]
    fn tcp_connections_disable_nagle_on_both_ends() {
        let (listener, resolved) = AnyListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let client = resolved.connect().unwrap();
        let served = listener.accept().unwrap();
        for conn in [&client, &served] {
            let Conn::Tcp(stream) = conn else {
                panic!("tcp endpoint gave {conn:?}");
            };
            assert!(stream.nodelay().unwrap());
        }
        client.shutdown().unwrap();
    }
}
