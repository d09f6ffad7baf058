//! A disk that keeps its own books, for crash tests of the write-ahead log.
//!
//! [`ModelDisk`] implements [`ldp_wal::Disk`] in memory and remembers what
//! a real disk would keep through a power cut, by the persistence rules of
//! ALICE (Pillai et al., OSDI 2014, "All File Systems Are Not Created
//! Equal"):
//!
//! - every file has a durable image and its current bytes; `sync_data`
//!   and `sync_all` make the current bytes durable;
//! - every directory has durable entries and the creates, renames and
//!   removes made since its last sync, in order; a directory sync makes
//!   them durable;
//! - a power cut keeps the durable state, plus any prefix of each file's
//!   unsynced appended tail and any prefix of each directory's pending
//!   entry changes ([`ModelDisk::power_cuts`]). A file whose current bytes
//!   do not extend its durable image (cut back and not synced since)
//!   comes back as either one.
//!
//! A directory exists, durably, from the moment it is made: the log
//! never syncs the parent of its directory, and the model does not track
//! it.
//!
//! Two kinds of fault, both per disk (nothing here is process-global):
//!
//! - a kill predicate ([`ModelDisk::killed_when`]), asked with the
//!   operation's number before every operation, while no lock of the
//!   model is held — under `ldp-check` it may load a checker atomic, a
//!   scheduling decision. Once it answers yes, that operation and every
//!   later one fail, as in a killed process;
//! - one-shot I/O errors the disk survives ([`ModelDisk::fail_next_write`],
//!   [`ModelDisk::fail_next_sync`]).

use ldp_wal::{Disk, DiskFile};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

type KillPredicate = Box<dyn Fn(u64) -> bool + Send + Sync>;

/// An in-memory disk that can lose power; clones share one disk.
#[derive(Clone)]
pub struct ModelDisk {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Operations asked so far, failed ones included.
    operations: AtomicU64,
    killed: AtomicBool,
    kill: Option<KillPredicate>,
}

#[derive(Clone, Default)]
struct State {
    /// Every file ever made, by inode number.
    files: Vec<FileData>,
    dirs: BTreeMap<PathBuf, Dir>,
    /// The next write keeps this many bytes and the one after it fails.
    short_write: Option<usize>,
    fail_write: bool,
    /// The next file sync fails and drops that file's unsynced tail.
    fail_sync: bool,
}

#[derive(Clone, Default)]
struct FileData {
    durable: Vec<u8>,
    current: Vec<u8>,
}

#[derive(Clone, Default)]
struct Dir {
    durable: BTreeMap<String, usize>,
    current: BTreeMap<String, usize>,
    /// Entry changes since the last directory sync, in order.
    pending: Vec<Change>,
}

#[derive(Clone)]
enum Change {
    Create(String, usize),
    Rename(String, String),
    Remove(String),
}

impl Change {
    fn apply(&self, entries: &mut BTreeMap<String, usize>) {
        match self {
            Change::Create(name, inode) => {
                entries.insert(name.clone(), *inode);
            }
            Change::Rename(from, to) => {
                let inode = entries.remove(from).expect("a pending rename's source");
                entries.insert(to.clone(), inode);
            }
            Change::Remove(name) => {
                entries.remove(name);
            }
        }
    }
}

/// One choice a power cut makes.
enum Choice {
    /// How many of this directory's pending changes survive.
    Entries(PathBuf),
    /// How much of this file's unsynced bytes survive.
    Bytes(usize),
}

impl Default for ModelDisk {
    fn default() -> Self {
        ModelDisk::new()
    }
}

impl fmt::Debug for ModelDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelDisk")
            .field("operations", &self.operations())
            .finish_non_exhaustive()
    }
}

fn killed() -> io::Error {
    io::Error::other("model disk: the process was killed")
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("model disk: injected {what} failure"))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("model disk: no {}", path.display()),
    )
}

/// `path`'s directory and file name.
fn split(path: &Path) -> (&Path, String) {
    let dir = path.parent().expect("a file inside a directory");
    let name = path.file_name().expect("a file name").to_string_lossy();
    (dir, name.into_owned())
}

impl ModelDisk {
    /// An empty disk that never fails.
    #[must_use]
    pub fn new() -> Self {
        ModelDisk::with(State::default(), None)
    }

    /// An empty disk whose process dies at the first operation for which
    /// `kill` (asked with the operation's number, from 0) answers yes.
    #[must_use]
    pub fn killed_when(kill: impl Fn(u64) -> bool + Send + Sync + 'static) -> Self {
        ModelDisk::with(State::default(), Some(Box::new(kill)))
    }

    fn with(state: State, kill: Option<KillPredicate>) -> Self {
        ModelDisk {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                operations: AtomicU64::new(0),
                killed: AtomicBool::new(false),
                kill,
            }),
        }
    }

    /// Operations asked of this disk so far, failed ones included.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.shared.operations.load(Ordering::Relaxed)
    }

    /// The next write keeps only its first `keep` bytes (a short write),
    /// and the write after it fails; later writes work.
    pub fn fail_next_write(&self, keep: usize) {
        self.state().short_write = Some(keep);
    }

    /// The next file sync fails and drops that file's unsynced tail, as a
    /// kernel that could not write dirty pages drops them; later syncs
    /// work.
    pub fn fail_next_sync(&self) {
        self.state().fail_sync = true;
    }

    /// Every disk a power cut can leave now, one per combination of
    /// choices: each prefix of each directory's unsynced entry changes;
    /// for each file with an unsynced appended tail, each length of it
    /// that `tail_keeps` picks (`|tail| (0..=tail.len()).collect()` picks
    /// every prefix; it must pick 0); a file cut back and not synced since
    /// comes back as its durable or its current bytes. Everything on a cut
    /// disk is durable, and it never fails.
    ///
    /// # Panics
    /// When `tail_keeps` picks a length past its tail or does not start
    /// with 0.
    pub fn power_cuts(
        &self,
        tail_keeps: impl Fn(&[u8]) -> Vec<usize>,
    ) -> impl Iterator<Item = ModelDisk> {
        let state = self.state().clone();
        let choices = state.choices(&tail_keeps);
        let mut picks = Some(vec![0; choices.len()]);
        std::iter::from_fn(move || {
            let pick = picks.as_mut()?;
            let keeps = pick.iter().zip(&choices).map(|(&i, (_, keeps))| keeps[i]);
            let cut = state.cut(&choices, keeps);
            // The next combination, counting in mixed radix.
            let wrapped = pick.iter_mut().zip(&choices).all(|(i, (_, keeps))| {
                *i = (*i + 1) % keeps.len();
                *i == 0
            });
            if wrapped {
                picks = None;
            }
            Some(cut)
        })
    }

    /// The disk a power cut leaves when it keeps only the durable state:
    /// the first of [`ModelDisk::power_cuts`], whatever it picks.
    #[must_use]
    pub fn durable(&self) -> ModelDisk {
        let mut cuts = self.power_cuts(|_| vec![0]);
        cuts.next().expect("a power cut leaves some disk")
    }

    fn state(&self) -> MutexGuard<'_, State> {
        let state = &self.shared.state;
        state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one operation and asks the kill predicate about it, holding
    /// no lock of the model.
    fn ask(&self) -> io::Result<()> {
        let shared = &*self.shared;
        let op = shared.operations.fetch_add(1, Ordering::Relaxed);
        if shared.killed.load(Ordering::Relaxed) {
            return Err(killed());
        }
        if shared.kill.as_ref().is_some_and(|kill| kill(op)) {
            shared.killed.store(true, Ordering::Relaxed);
            return Err(killed());
        }
        Ok(())
    }
}

impl State {
    /// Every choice a power cut makes, each with the keeps it may pick
    /// (see [`ModelDisk::power_cuts`]); a keep of 0 comes first.
    fn choices(&self, tail_keeps: &dyn Fn(&[u8]) -> Vec<usize>) -> Vec<(Choice, Vec<usize>)> {
        let mut choices = Vec::new();
        let mut reachable = Vec::new();
        for (path, dir) in &self.dirs {
            if !dir.pending.is_empty() {
                choices.push((
                    Choice::Entries(path.clone()),
                    (0..=dir.pending.len()).collect(),
                ));
            }
            reachable.extend(dir.durable.values().copied());
            reachable.extend(dir.pending.iter().filter_map(|change| match change {
                Change::Create(_, inode) => Some(*inode),
                _ => None,
            }));
        }
        reachable.sort_unstable();
        reachable.dedup();
        for inode in reachable {
            let FileData { durable, current } = &self.files[inode];
            let keeps = match current.strip_prefix(&durable[..]) {
                Some([]) => continue,
                Some(tail) => {
                    let keeps = tail_keeps(tail);
                    assert_eq!(keeps.first(), Some(&0), "a cut may keep none of a tail");
                    assert!(keeps.iter().all(|&keep| keep <= tail.len()));
                    keeps
                }
                None => vec![0, 1],
            };
            choices.push((Choice::Bytes(inode), keeps));
        }
        choices
    }

    /// The disk a power cut leaves when each of `choices` keeps the
    /// matching entry of `keeps`.
    fn cut(
        &self,
        choices: &[(Choice, Vec<usize>)],
        keeps: impl Iterator<Item = usize>,
    ) -> ModelDisk {
        // Bytes no choice names are durable already, or on no entry.
        let mut kept: Vec<Vec<u8>> = self.files.iter().map(|f| f.durable.clone()).collect();
        let mut entries: BTreeMap<PathBuf, BTreeMap<String, usize>> = self
            .dirs
            .iter()
            .map(|(path, dir)| (path.clone(), dir.durable.clone()))
            .collect();
        for ((choice, _), keep) in choices.iter().zip(keeps) {
            match choice {
                Choice::Entries(path) => {
                    let surviving = entries.get_mut(path).expect("a listed directory");
                    for change in &self.dirs[path].pending[..keep] {
                        change.apply(surviving);
                    }
                }
                Choice::Bytes(inode) => {
                    let file = &self.files[*inode];
                    kept[*inode] = match file.current.strip_prefix(&file.durable[..]) {
                        Some(_) => file.current[..file.durable.len() + keep].to_vec(),
                        None if keep == 0 => file.durable.clone(),
                        None => file.current.clone(),
                    };
                }
            }
        }
        let files = kept
            .into_iter()
            .map(|bytes| FileData {
                durable: bytes.clone(),
                current: bytes,
            })
            .collect();
        let dirs = entries
            .into_iter()
            .map(|(path, entries)| {
                let dir = Dir {
                    durable: entries.clone(),
                    current: entries,
                    pending: Vec::new(),
                };
                (path, dir)
            })
            .collect();
        ModelDisk::with(
            State {
                files,
                dirs,
                ..State::default()
            },
            None,
        )
    }

    fn dir(&mut self, dir: &Path) -> io::Result<&mut Dir> {
        self.dirs.get_mut(dir).ok_or_else(|| not_found(dir))
    }

    fn inode(&mut self, path: &Path) -> io::Result<usize> {
        let (dir, name) = split(path);
        self.dir(dir)?
            .current
            .get(&name)
            .copied()
            .ok_or_else(|| not_found(path))
    }
}

impl Disk for ModelDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.ask()?;
        self.state().dirs.entry(dir.to_path_buf()).or_default();
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        self.ask()?;
        let state = self.state();
        let entries = &state.dirs.get(dir).ok_or_else(|| not_found(dir))?.current;
        let length = |inode: usize| state.files[inode].current.len() as u64;
        Ok(entries
            .iter()
            .map(|(name, &inode)| (name.clone(), length(inode)))
            .collect())
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        self.ask()?;
        let mut state = self.state();
        let inode = state.inode(path)?;
        Ok(Box::new(Cursor::new(state.files[inode].current.clone())))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        self.ask()?;
        let mut state = self.state();
        let inode = match state.inode(path) {
            Ok(inode) => {
                // Truncating an existing file changes its bytes, not its
                // directory entry.
                state.files[inode].current.clear();
                inode
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let inode = state.files.len();
                state.files.push(FileData::default());
                let (dir, name) = split(path);
                let dir = state.dir(dir)?;
                dir.current.insert(name.clone(), inode);
                dir.pending.push(Change::Create(name, inode));
                inode
            }
            Err(e) => return Err(e),
        };
        Ok(Box::new(ModelFile {
            disk: self.clone(),
            inode,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn DiskFile>> {
        self.ask()?;
        let inode = self.state().inode(path)?;
        Ok(Box::new(ModelFile {
            disk: self.clone(),
            inode,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.ask()?;
        let (dir, from_name) = split(from);
        let (to_dir, to_name) = split(to);
        assert_eq!(dir, to_dir, "the log renames within its directory");
        let mut state = self.state();
        let dir = state.dir(dir)?;
        let inode = dir
            .current
            .remove(&from_name)
            .ok_or_else(|| not_found(from))?;
        dir.current.insert(to_name.clone(), inode);
        dir.pending.push(Change::Rename(from_name, to_name));
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.ask()?;
        let (dir, name) = split(path);
        let mut state = self.state();
        let dir = state.dir(dir)?;
        dir.current.remove(&name).ok_or_else(|| not_found(path))?;
        dir.pending.push(Change::Remove(name));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.ask()?;
        let mut state = self.state();
        let dir = state.dir(dir)?;
        dir.durable = dir.current.clone();
        dir.pending.clear();
        Ok(())
    }
}

/// A file of a [`ModelDisk`] opened for writing; writes append.
struct ModelFile {
    disk: ModelDisk,
    inode: usize,
}

impl ModelFile {
    fn sync(&self) -> io::Result<()> {
        self.disk.ask()?;
        let mut state = self.disk.state();
        let fail = std::mem::take(&mut state.fail_sync);
        let file = &mut state.files[self.inode];
        if fail {
            if file.current.starts_with(&file.durable) {
                file.current.truncate(file.durable.len());
            }
            return Err(injected("sync"));
        }
        file.durable = file.current.clone();
        Ok(())
    }
}

impl Write for ModelFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.disk.ask()?;
        let mut state = self.disk.state();
        if std::mem::take(&mut state.fail_write) {
            return Err(injected("write"));
        }
        let mut kept = buf.len();
        if let Some(keep) = state.short_write.take() {
            // The write after a short one fails; a short write of nothing
            // is that failure already.
            if keep == 0 {
                return Err(injected("write"));
            }
            kept = keep.min(kept);
            state.fail_write = true;
        }
        state.files[self.inode]
            .current
            .extend_from_slice(&buf[..kept]);
        Ok(kept)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DiskFile for ModelFile {
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.disk.ask()?;
        let len = usize::try_from(len).expect("a model file fits in memory");
        self.disk.state().files[self.inode].current.resize(len, 0);
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        self.sync()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_prefix(tail: &[u8]) -> Vec<usize> {
        (0..=tail.len()).collect()
    }

    fn path(name: &str) -> PathBuf {
        Path::new("d").join(name)
    }

    fn read(disk: &ModelDisk, name: &str) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        disk.open_read(&path(name))?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn names(disk: &ModelDisk) -> Vec<String> {
        let listed = disk.list(Path::new("d")).unwrap();
        listed.into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn a_power_cut_keeps_synced_bytes_and_any_prefix_of_the_tail() {
        let disk = ModelDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        let mut file = disk.create(&path("f")).unwrap();
        disk.sync_dir(Path::new("d")).unwrap();
        file.write_all(b"abc").unwrap();
        file.sync_data().unwrap();
        file.write_all(b"de").unwrap();
        let kept: Vec<Vec<u8>> = disk
            .power_cuts(every_prefix)
            .map(|cut| read(&cut, "f").unwrap())
            .collect();
        assert_eq!(kept, [&b"abc"[..], b"abcd", b"abcde"]);
        let ends: Vec<Vec<u8>> = disk
            .power_cuts(|tail| vec![0, tail.len()])
            .map(|cut| read(&cut, "f").unwrap())
            .collect();
        assert_eq!(ends, [&b"abc"[..], b"abcde"]);
        assert_eq!(read(&disk.durable(), "f").unwrap(), b"abc");
        let again = disk.durable().power_cuts(every_prefix).count();
        assert_eq!(again, 1, "a cut disk is durable");
    }

    #[test]
    fn a_file_cut_back_and_not_synced_comes_back_either_way() {
        let disk = ModelDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        let mut file = disk.create(&path("f")).unwrap();
        disk.sync_dir(Path::new("d")).unwrap();
        file.write_all(b"abc").unwrap();
        file.sync_all().unwrap();
        file.set_len(1).unwrap();
        let kept: Vec<Vec<u8>> = disk
            .power_cuts(every_prefix)
            .map(|cut| read(&cut, "f").unwrap())
            .collect();
        assert_eq!(kept, [&b"abc"[..], b"a"]);
    }

    #[test]
    fn unsynced_entry_changes_may_be_undone_in_order() {
        let disk = ModelDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        let mut tmp = disk.create(&path("a.tmp")).unwrap();
        tmp.write_all(b"x").unwrap();
        tmp.sync_all().unwrap();
        disk.rename(&path("a.tmp"), &path("a")).unwrap();
        let seen: Vec<Vec<String>> = disk.power_cuts(every_prefix).map(|c| names(&c)).collect();
        assert_eq!(
            seen,
            [vec![], vec!["a.tmp".to_owned()], vec!["a".to_owned()]]
        );
        disk.sync_dir(Path::new("d")).unwrap();
        assert_eq!(disk.power_cuts(every_prefix).count(), 1);
        assert_eq!(read(&disk.durable(), "a").unwrap(), b"x");
        disk.remove(&path("a")).unwrap();
        assert_eq!(
            names(&disk.durable()),
            ["a"],
            "an unsynced remove is undone"
        );
    }

    #[test]
    fn a_kill_fails_that_operation_and_every_later_one() {
        let disk = ModelDisk::killed_when(|op| op == 2);
        disk.create_dir_all(Path::new("d")).unwrap();
        let mut file = disk.create(&path("f")).unwrap();
        assert!(file.write_all(b"x").is_err());
        assert!(disk.sync_dir(Path::new("d")).is_err());
        assert!(file.sync_data().is_err());
        assert_eq!(disk.operations(), 5);
        assert!(names(&disk.durable()).is_empty());
    }

    #[test]
    fn injected_faults_fire_once() {
        let disk = ModelDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        let mut file = disk.create(&path("f")).unwrap();
        disk.fail_next_write(2);
        assert!(
            file.write_all(b"abcd").is_err(),
            "a short write, then an error"
        );
        assert_eq!(read(&disk, "f").unwrap(), b"ab");
        file.write_all(b"e").unwrap();
        file.sync_data().unwrap();
        file.write_all(b"f").unwrap();
        disk.fail_next_sync();
        assert!(file.sync_data().is_err());
        assert_eq!(
            read(&disk, "f").unwrap(),
            b"abe",
            "the unsynced tail is gone"
        );
        file.sync_data().unwrap();
        assert!(disk
            .open_read(&path("g"))
            .is_err_and(|e| e.kind() == io::ErrorKind::NotFound));
    }
}
