//! The one place the log touches the filesystem.
//!
//! [`Disk`] and [`DiskFile`] name exactly the operations `log.rs`
//! performs, and nothing else: a directory made and listed, files opened
//! for read, created or opened for append, written, cut, synced, renamed
//! and removed, and a directory synced. Every byte the log makes durable
//! goes through them, so a disk that keeps its own books — which bytes an
//! `fsync` covered, which directory entries a directory sync made
//! durable — can cut power at any operation and check the log's promises
//! against what a real disk would keep.
//!
//! Production uses [`StdDisk`], private to this crate: each method is one
//! `std` call. [`crate::WalConfig::disk`] swaps in another disk.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// A filesystem as the log uses it. Paths are the log directory and the
/// files in it; no path names a file in a subdirectory.
pub trait Disk: fmt::Debug + Send + Sync {
    /// Makes `dir` and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Every entry of `dir`: its name and its length in bytes.
    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>>;
    /// Opens the file at `path` for reading from its start. A missing file
    /// is an [`io::ErrorKind::NotFound`] error.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>>;
    /// Creates the file at `path`, empty, cutting any file already there.
    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>>;
    /// Opens the existing file at `path` for appends.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn DiskFile>>;
    /// Renames `from` to `to`, replacing any file at `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Makes every entry created, renamed or removed in `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// A file of a [`Disk`] opened for writing. Its writes go where
/// [`Disk::create`] or [`Disk::open_append`] put them: the end of the file.
pub trait DiskFile: Write + Send {
    /// Cuts or extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Makes the file's bytes durable.
    fn sync_data(&self) -> io::Result<()>;
    /// Makes the file's bytes and metadata durable.
    fn sync_all(&self) -> io::Result<()>;
}

/// The operating system's filesystem.
#[derive(Debug)]
pub(crate) struct StdDisk;

impl Disk for StdDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        fs::read_dir(dir)?
            .map(|entry| {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                Ok((name, entry.metadata()?.len()))
            })
            .collect()
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(File::open(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

impl DiskFile for File {
    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn sync_all(&self) -> io::Result<()> {
        File::sync_all(self)
    }
}
