//! Async read/write extension traits for the TCP halves.

#![allow(async_fn_in_trait)]

use crate::net::{OwnedReadHalf, OwnedWriteHalf};
use std::io;

/// Async read methods (`read`, `read_exact`).
pub trait AsyncReadExt {
    /// Reads up to `buf.len()` bytes; `Ok(0)` means EOF.
    async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Fills `buf` completely or fails with `UnexpectedEof`.
    async fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

impl AsyncReadExt for OwnedReadHalf {
    async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        std::future::poll_fn(|cx| self.io.poll_read(cx, buf)).await
    }

    async fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let total = buf.len();
        let mut filled = 0;
        while filled < total {
            let n = self.read(&mut buf[filled..]).await?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "early eof"));
            }
            filled += n;
        }
        Ok(total)
    }
}

/// Async write methods (`write_all`, `flush`, `shutdown`).
pub trait AsyncWriteExt {
    /// Writes the entire buffer.
    async fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes buffered data (no-op: the socket is unbuffered).
    async fn flush(&mut self) -> io::Result<()>;

    /// Shuts down the write direction.
    async fn shutdown(&mut self) -> io::Result<()>;
}

impl AsyncWriteExt for OwnedWriteHalf {
    async fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut written = 0;
        while written < buf.len() {
            let n = std::future::poll_fn(|cx| self.io.poll_write(cx, &buf[written..])).await?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "write returned 0"));
            }
            written += n;
        }
        Ok(())
    }

    async fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    async fn shutdown(&mut self) -> io::Result<()> {
        self.io.shutdown_write()
    }
}
