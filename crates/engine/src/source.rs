//! Document sources: where ingestion pulls its XML from.
//!
//! The worker pool used to receive every document pre-loaded as a
//! `Vec<String>` — peak memory scaled with the corpus, defeating the
//! paper's "discard the XML as data trickles in" premise (§9). A
//! [`DocSource`] inverts that: workers claim *indices* and load each
//! document themselves into a reused per-worker buffer, so at most one
//! document per worker is resident at a time.
//!
//! [`PathSource`] reads files on demand (the CLI path); [`MemSource`]
//! adapts an in-memory slice (tests, benches, and callers that already
//! hold the documents) with zero copying.

use std::io::Read;
use std::path::PathBuf;

/// A random-access collection of XML documents, loadable by index.
///
/// `Sync` because the worker pool shares one source across threads; `load`
/// takes `&self` and must be safe to call concurrently for distinct (or
/// even equal) indices.
pub trait DocSource: Sync {
    /// Number of documents.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A human-readable name for document `index` (usually the file path),
    /// used to attribute errors. `None` for anonymous in-memory documents.
    fn name(&self, index: usize) -> Option<String>;

    /// Loads document `index`, borrowing either from the source itself or
    /// from `buf` (cleared and refilled). Returns a message on read
    /// failure.
    fn load<'s>(&'s self, index: usize, buf: &'s mut String) -> Result<&'s str, String>;
}

/// An in-memory document slice; `load` borrows straight from the slice.
pub struct MemSource<'a, D: AsRef<str> + Sync> {
    docs: &'a [D],
}

impl<'a, D: AsRef<str> + Sync> MemSource<'a, D> {
    /// Wraps a document slice.
    pub fn new(docs: &'a [D]) -> Self {
        Self { docs }
    }
}

impl<D: AsRef<str> + Sync> DocSource for MemSource<'_, D> {
    fn len(&self) -> usize {
        self.docs.len()
    }

    fn name(&self, _index: usize) -> Option<String> {
        None
    }

    fn load<'s>(&'s self, index: usize, _buf: &'s mut String) -> Result<&'s str, String> {
        Ok(self.docs[index].as_ref())
    }
}

/// A list of file paths, read lazily into the caller's buffer — the
/// streaming ingestion path: no document is resident before a worker
/// claims it, and each worker holds at most one at a time.
pub struct PathSource {
    paths: Vec<PathBuf>,
}

impl PathSource {
    /// Wraps a path list.
    pub fn new(paths: Vec<PathBuf>) -> Self {
        Self { paths }
    }

    /// The underlying paths.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }
}

impl DocSource for PathSource {
    fn len(&self) -> usize {
        self.paths.len()
    }

    fn name(&self, index: usize) -> Option<String> {
        Some(self.paths[index].display().to_string())
    }

    fn load<'s>(&'s self, index: usize, buf: &'s mut String) -> Result<&'s str, String> {
        let path = &self.paths[index];
        // Read into the buffer's own bytes, so its capacity is reused.
        // `File::read_to_end` would first ask the file for its size and
        // position, two syscalls per document to size a buffer that is
        // already there; `Take`'s generic `read_to_end` reads straight
        // into the spare capacity, growing it as needed, and retries
        // `Interrupted`.
        let mut bytes = std::mem::take(buf).into_bytes();
        bytes.clear();
        std::fs::File::open(path)
            .and_then(|file| file.take(u64::MAX).read_to_end(&mut bytes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        *buf = String::from_utf8(bytes)
            .map_err(|e| format!("{}: invalid UTF-8: {e}", path.display()))?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_source_borrows_without_copying() {
        let docs = ["<a/>".to_owned(), "<b/>".to_owned()];
        let source = MemSource::new(&docs);
        assert_eq!(source.len(), 2);
        assert_eq!(source.name(0), None);
        let mut buf = String::new();
        let doc = source.load(1, &mut buf).unwrap();
        assert_eq!(doc, "<b/>");
        assert!(buf.is_empty(), "in-memory load must not copy");
    }

    #[test]
    fn path_source_reads_and_names_files() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("doc.xml");
        std::fs::write(&file, "<r><a/></r>").unwrap();
        let source = PathSource::new(vec![file.clone(), dir.join("missing.xml")]);
        assert_eq!(source.len(), 2);
        assert_eq!(source.name(0), Some(file.display().to_string()));
        let mut buf = String::new();
        assert_eq!(source.load(0, &mut buf).unwrap(), "<r><a/></r>");
        let err = source.load(1, &mut buf).unwrap_err();
        assert!(err.contains("missing.xml"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_source_reads_into_the_reused_buffer() {
        let dir = std::env::temp_dir().join(format!("dtdinfer-buf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (good, bad) = (dir.join("good.xml"), dir.join("bad.xml"));
        std::fs::write(&good, "<r/>").unwrap();
        std::fs::write(&bad, b"<r>\xff</r>").unwrap();
        let source = PathSource::new(vec![good, bad]);
        let mut buf = String::with_capacity(4096);
        assert_eq!(source.load(0, &mut buf).unwrap(), "<r/>");
        assert!(buf.capacity() >= 4096, "the buffer was replaced");
        let err = source.load(1, &mut buf).unwrap_err();
        assert!(err.contains("bad.xml: invalid UTF-8"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
