//! File-system metadata: files as sequences of disk blocks.
//!
//! Deliberately minimal — directories, names and permissions play no role
//! in cache-consistency behaviour. What matters is the traffic: which
//! blocks move through the buffer cache and when DMA happens.

use vic_core::fxhash::FxHashMap;
use vic_core::serial::{SerialError, WordReader, WordWriter};

use crate::bufcache::{BlockId, Disk};
use crate::error::OsError;

/// A file identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file:{}", self.0)
    }
}

/// File metadata: block lists.
#[derive(Debug, Clone, Default)]
pub struct FileSystem {
    files: FxHashMap<FileId, Vec<BlockId>>,
    next: u32,
}

impl FileSystem {
    /// An empty file system.
    pub fn new() -> Self {
        FileSystem::default()
    }

    /// Create an empty file.
    pub fn create(&mut self) -> FileId {
        let id = FileId(self.next);
        self.next += 1;
        self.files.insert(id, Vec::new());
        id
    }

    /// Number of existing files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The file's length in pages.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] if the file does not exist.
    pub fn len_pages(&self, f: FileId) -> Result<u64, OsError> {
        Ok(self.blocks(f)?.len() as u64)
    }

    /// The file's block list.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] if the file does not exist.
    pub fn blocks(&self, f: FileId) -> Result<&[BlockId], OsError> {
        self.files
            .get(&f)
            .map(Vec::as_slice)
            .ok_or(OsError::NoSuchFile(f.0))
    }

    /// The block backing page `page` of the file, if within bounds.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] / [`OsError::FileOutOfRange`].
    pub fn block_at(&self, f: FileId, page: u64) -> Result<BlockId, OsError> {
        let blocks = self.blocks(f)?;
        blocks
            .get(page as usize)
            .copied()
            .ok_or(OsError::FileOutOfRange { file: f.0, page })
    }

    /// Get the block for page `page`, extending the file (allocating disk
    /// blocks) as needed.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] / [`OsError::DiskFull`].
    pub fn ensure_block(
        &mut self,
        f: FileId,
        page: u64,
        disk: &mut Disk,
    ) -> Result<BlockId, OsError> {
        let blocks = self.files.get_mut(&f).ok_or(OsError::NoSuchFile(f.0))?;
        while blocks.len() <= page as usize {
            blocks.push(disk.alloc()?);
        }
        Ok(blocks[page as usize])
    }

    /// Serialize the file table. Files are held in a point-lookup hash map
    /// (iteration order never decides behaviour) and are written sorted by
    /// id for a canonical stream; each block list's order is the file's
    /// page order and is written exactly.
    pub fn save_state(&self, w: &mut WordWriter) {
        let mut files: Vec<_> = self.files.iter().collect();
        files.sort_by_key(|(id, _)| id.0);
        w.usize(files.len());
        for (id, blocks) in files {
            w.u32(id.0);
            w.usize(blocks.len());
            for b in blocks {
                w.u32(b.0);
            }
        }
        w.u32(self.next);
    }

    /// Restore state saved by [`FileSystem::save_state`].
    pub fn restore_state(&mut self, r: &mut WordReader) -> Result<(), SerialError> {
        let n = r.usize()?;
        self.files.clear();
        for _ in 0..n {
            let id = FileId(r.u32()?);
            let nblocks = r.count(1)?;
            let mut blocks = Vec::with_capacity(nblocks);
            for _ in 0..nblocks {
                blocks.push(BlockId(r.u32()?));
            }
            self.files.insert(id, blocks);
        }
        self.next = r.u32()?;
        Ok(())
    }

    /// Delete a file, releasing its blocks. Returns the released blocks so
    /// the caller can drop them from the buffer cache.
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchFile`] if the file does not exist.
    pub fn delete(&mut self, f: FileId, disk: &mut Disk) -> Result<Vec<BlockId>, OsError> {
        let blocks = self.files.remove(&f).ok_or(OsError::NoSuchFile(f.0))?;
        for b in &blocks {
            disk.release(*b);
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_extend_delete() {
        let mut fs = FileSystem::new();
        let mut disk = Disk::new(8, 256);
        let f = fs.create();
        assert_eq!(fs.len_pages(f).unwrap(), 0);
        let b0 = fs.ensure_block(f, 0, &mut disk).unwrap();
        let b2 = fs.ensure_block(f, 2, &mut disk).unwrap();
        assert_eq!(fs.len_pages(f).unwrap(), 3);
        assert_eq!(fs.block_at(f, 0).unwrap(), b0);
        assert_eq!(fs.block_at(f, 2).unwrap(), b2);
        assert_eq!(disk.free_blocks(), 5);
        let freed = fs.delete(f, &mut disk).unwrap();
        assert_eq!(freed.len(), 3);
        assert_eq!(disk.free_blocks(), 8);
        assert!(matches!(fs.blocks(f), Err(OsError::NoSuchFile(_))));
    }

    #[test]
    fn out_of_range_read() {
        let mut fs = FileSystem::new();
        let f = fs.create();
        assert!(matches!(
            fs.block_at(f, 0),
            Err(OsError::FileOutOfRange { .. })
        ));
    }

    #[test]
    fn restore_rejects_an_inflated_block_count() {
        let mut fs = FileSystem::new();
        let mut disk = Disk::new(8, 256);
        let f = fs.create();
        fs.ensure_block(f, 2, &mut disk).unwrap();
        let mut w = WordWriter::new();
        fs.save_state(&mut w);
        let mut words = w.into_words();
        // File count, file id, then the block count.
        assert_eq!(words[2], 3);
        words[2] = u64::MAX >> 4;
        assert_eq!(
            FileSystem::new().restore_state(&mut WordReader::new(&words)),
            Err(SerialError::Truncated { at: words.len() })
        );
    }

    #[test]
    fn ids_unique() {
        let mut fs = FileSystem::new();
        let a = fs.create();
        let b = fs.create();
        assert_ne!(a, b);
        assert_eq!(fs.file_count(), 2);
    }
}
