//! The `PRSM` weight container format.
//!
//! A container is a single file holding named binary sections — one per
//! transformer layer plus the embedding table and classifier head. The
//! header stores a section table with byte offsets so readers can issue
//! positioned reads for exactly the bytes they need: whole layers (the
//! streamer), individual embedding rows (the cache), or nothing at all (the
//! cost model, which only needs sizes).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8  b"PRSMWT01"
//! count     4  u32 number of sections
//! per section:
//!   name_len 2  u16
//!   name     .. utf-8
//!   kind     1  u8  (0 = f32 tensor, 1 = q4 blob, 2 = raw bytes)
//!   rows     8  u64
//!   cols     8  u64
//!   offset   8  u64 (from file start)
//!   len      8  u64 (bytes)
//! payloads  .. concatenated section bytes
//! ```

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use prism_tensor::Tensor;

use crate::{Result, StorageError};

const MAGIC: &[u8; 8] = b"PRSMWT01";

/// What a section's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Row-major `f32` tensor of shape `rows x cols`.
    F32,
    /// Opaque 4-bit quantized blob (shape metadata still meaningful).
    Q4,
    /// Raw bytes.
    Raw,
}

impl SectionKind {
    fn to_u8(self) -> u8 {
        match self {
            SectionKind::F32 => 0,
            SectionKind::Q4 => 1,
            SectionKind::Raw => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(SectionKind::F32),
            1 => Ok(SectionKind::Q4),
            2 => Ok(SectionKind::Raw),
            other => Err(StorageError::BadFormat {
                reason: format!("unknown section kind {other}"),
            }),
        }
    }
}

/// Metadata of one section in a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionMeta {
    /// Section name, e.g. `"layer.7"` or `"embedding"`.
    pub name: String,
    /// Payload interpretation.
    pub kind: SectionKind,
    /// Logical rows (0 for raw blobs).
    pub rows: u64,
    /// Logical columns (0 for raw blobs).
    pub cols: u64,
    /// Byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Buffered writer that assembles a container and flushes it on
/// [`ContainerWriter::finish`].
///
/// Mini-scale model files are a few megabytes, so buffering sections in
/// memory keeps the format code simple; paper-scale weights never exist as
/// bytes (the device model works from section *sizes*).
pub struct ContainerWriter {
    path: PathBuf,
    sections: Vec<(SectionMeta, Vec<u8>)>,
}

impl ContainerWriter {
    /// Starts a new container that will be written to `path`.
    pub fn create(path: impl AsRef<Path>) -> Self {
        ContainerWriter {
            path: path.as_ref().to_path_buf(),
            sections: Vec::new(),
        }
    }

    /// Adds an `f32` tensor section.
    pub fn add_f32(&mut self, name: &str, tensor: &Tensor) -> &mut Self {
        let mut bytes = Vec::with_capacity(tensor.len() * 4);
        for &v in tensor.data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.sections.push((
            SectionMeta {
                name: name.to_string(),
                kind: SectionKind::F32,
                rows: tensor.rows() as u64,
                cols: tensor.cols() as u64,
                offset: 0,
                len: bytes.len() as u64,
            },
            bytes,
        ));
        self
    }

    /// Adds an opaque byte section.
    pub fn add_raw(
        &mut self,
        name: &str,
        kind: SectionKind,
        rows: u64,
        cols: u64,
        bytes: Vec<u8>,
    ) -> &mut Self {
        self.sections.push((
            SectionMeta {
                name: name.to_string(),
                kind,
                rows,
                cols,
                offset: 0,
                len: bytes.len() as u64,
            },
            bytes,
        ));
        self
    }

    /// Writes the container to disk.
    pub fn finish(mut self) -> Result<()> {
        // Compute header size to lay out payload offsets.
        let mut header_len = MAGIC.len() + 4;
        for (meta, _) in &self.sections {
            header_len += 2 + meta.name.len() + 1 + 8 * 4;
        }
        let mut offset = header_len as u64;
        for (meta, _) in &mut self.sections {
            meta.offset = offset;
            offset += meta.len;
        }
        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (meta, _) in &self.sections {
            out.extend_from_slice(&(meta.name.len() as u16).to_le_bytes());
            out.extend_from_slice(meta.name.as_bytes());
            out.push(meta.kind.to_u8());
            out.extend_from_slice(&meta.rows.to_le_bytes());
            out.extend_from_slice(&meta.cols.to_le_bytes());
            out.extend_from_slice(&meta.offset.to_le_bytes());
            out.extend_from_slice(&meta.len.to_le_bytes());
        }
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        let mut file = File::create(&self.path)?;
        file.write_all(&out)?;
        file.sync_all()?;
        Ok(())
    }
}

/// Read-only handle to a container with positioned-read access.
///
/// `Container` is cheap to clone logically via [`Container::reopen`]: each
/// component (streamer thread, embedding cache) opens its own file handle so
/// positioned reads never contend on a shared seek cursor.
pub struct Container {
    path: PathBuf,
    file: File,
    sections: Vec<SectionMeta>,
}

impl Container {
    /// Opens a container and parses its section table.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let mut magic = [0_u8; 8];
        file.read_exact(&mut magic)
            .map_err(|_| StorageError::BadFormat {
                reason: "file too short for magic".into(),
            })?;
        if &magic != MAGIC {
            return Err(StorageError::BadFormat {
                reason: "bad magic".into(),
            });
        }
        let count = read_u32(&mut file)? as usize;
        if count > 1 << 20 {
            return Err(StorageError::BadFormat {
                reason: format!("absurd section count {count}"),
            });
        }
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = read_u16(&mut file)? as usize;
            let mut name = vec![0_u8; name_len];
            file.read_exact(&mut name)
                .map_err(|_| StorageError::BadFormat {
                    reason: "truncated section name".into(),
                })?;
            let name = String::from_utf8(name).map_err(|_| StorageError::BadFormat {
                reason: "non-utf8 section name".into(),
            })?;
            let mut kind = [0_u8; 1];
            file.read_exact(&mut kind)?;
            let kind = SectionKind::from_u8(kind[0])?;
            let rows = read_u64(&mut file)?;
            let cols = read_u64(&mut file)?;
            let offset = read_u64(&mut file)?;
            let len = read_u64(&mut file)?;
            sections.push(SectionMeta {
                name,
                kind,
                rows,
                cols,
                offset,
                len,
            });
        }
        let total = file.metadata()?.len();
        for s in &sections {
            if s.offset + s.len > total {
                return Err(StorageError::BadFormat {
                    reason: format!("section {} overruns file", s.name),
                });
            }
        }
        Ok(Container {
            path,
            file,
            sections,
        })
    }

    /// Opens an independent handle to the same container (own file cursor).
    pub fn reopen(&self) -> Result<Container> {
        Container::open(&self.path)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All section metadata in file order.
    pub fn sections(&self) -> &[SectionMeta] {
        &self.sections
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Result<&SectionMeta> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StorageError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Total payload bytes across sections whose name matches `pred`.
    pub fn payload_bytes(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.sections
            .iter()
            .filter(|s| pred(&s.name))
            .map(|s| s.len)
            .sum()
    }

    /// Reads an arbitrary byte range of a section via positioned read.
    pub fn read_range(&self, meta: &SectionMeta, start: u64, buf: &mut [u8]) -> Result<()> {
        if start + buf.len() as u64 > meta.len {
            return Err(StorageError::SectionMismatch {
                name: meta.name.clone(),
                reason: format!(
                    "range {}..{} exceeds section length {}",
                    start,
                    start + buf.len() as u64,
                    meta.len
                ),
            });
        }
        read_at(&self.file, meta.offset + start, buf)?;
        Ok(())
    }

    /// Reads a whole section's payload into `buf` (resized to fit).
    pub fn read_section_into(&self, name: &str, buf: &mut Vec<u8>) -> Result<SectionMeta> {
        let meta = self.section(name)?.clone();
        buf.resize(meta.len as usize, 0);
        self.read_range(&meta, 0, buf)?;
        Ok(meta)
    }

    /// Reads and decodes an `f32` tensor section.
    pub fn read_f32(&self, name: &str) -> Result<Tensor> {
        let meta = self.section(name)?.clone();
        if meta.kind != SectionKind::F32 {
            return Err(StorageError::SectionMismatch {
                name: name.to_string(),
                reason: "not an f32 section".into(),
            });
        }
        let mut bytes = vec![0_u8; meta.len as usize];
        self.read_range(&meta, 0, &mut bytes)?;
        decode_f32_tensor(&meta, &bytes)
    }

    /// Reads `row_count` logical `f32` rows starting at `row_start` from an
    /// `f32` section without touching the rest of the payload.
    pub fn read_f32_rows(&self, meta: &SectionMeta, row_start: u64, out: &mut [f32]) -> Result<()> {
        if meta.kind != SectionKind::F32 {
            return Err(StorageError::SectionMismatch {
                name: meta.name.clone(),
                reason: "not an f32 section".into(),
            });
        }
        let cols = meta.cols as usize;
        if cols == 0 || !out.len().is_multiple_of(cols) {
            return Err(StorageError::SectionMismatch {
                name: meta.name.clone(),
                reason: "output buffer not a whole number of rows".into(),
            });
        }
        let row_count = (out.len() / cols) as u64;
        if row_start + row_count > meta.rows {
            return Err(StorageError::SectionMismatch {
                name: meta.name.clone(),
                reason: format!(
                    "rows {row_start}..{} exceed {}",
                    row_start + row_count,
                    meta.rows
                ),
            });
        }
        let byte_start = row_start * meta.cols * 4;
        // SAFETY: `out` is an exclusively borrowed, initialised `[f32]`;
        // the byte view covers exactly its `size_of_val` bytes, `u8` has
        // alignment 1, and every bit pattern is a valid `f32`, so whatever
        // the read stores leaves `out` initialised and valid. `out` is not
        // touched again until `bytes` is dead.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), size_of_val(out))
        };
        self.read_range(meta, byte_start, bytes)?;
        // The payload is little-endian; this is the identity on such hosts.
        for v in out.iter_mut() {
            *v = f32::from_bits(u32::from_le(v.to_bits()));
        }
        Ok(())
    }
}

/// Decodes a little-endian `f32` payload into a tensor using the section's
/// declared shape.
pub fn decode_f32_tensor(meta: &SectionMeta, bytes: &[u8]) -> Result<Tensor> {
    if bytes.len() != (meta.rows * meta.cols * 4) as usize {
        return Err(StorageError::SectionMismatch {
            name: meta.name.clone(),
            reason: format!(
                "payload {} bytes, shape wants {}",
                bytes.len(),
                meta.rows * meta.cols * 4
            ),
        });
    }
    let mut data = Vec::with_capacity(bytes.len() / 4);
    for chunk in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    Ok(Tensor::from_vec(
        meta.rows as usize,
        meta.cols as usize,
        data,
    )?)
}

#[cfg(unix)]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    // Fallback: clone the handle and seek, keeping the original cursor
    // untouched for concurrent readers.
    use std::io::{Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

fn read_u16(r: &mut impl Read) -> Result<u16> {
    let mut b = [0_u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0_u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0_u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prism-format-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn write_then_read_round_trip() {
        let path = tmp("roundtrip");
        let t0 = Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t1 = Tensor::from_fn(2, 2, |r, c| (r + c) as f32 * 0.5);
        let mut w = ContainerWriter::create(&path);
        w.add_f32("layer.0", &t0);
        w.add_f32("layer.1", &t1);
        w.add_raw("meta", SectionKind::Raw, 0, 0, vec![1, 2, 3]);
        w.finish().unwrap();

        let c = Container::open(&path).unwrap();
        assert_eq!(c.sections().len(), 3);
        assert_eq!(c.read_f32("layer.0").unwrap(), t0);
        assert_eq!(c.read_f32("layer.1").unwrap(), t1);
        let mut buf = Vec::new();
        let meta = c.read_section_into("meta", &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(meta.kind, SectionKind::Raw);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_section_reported() {
        let path = tmp("missing");
        let mut w = ContainerWriter::create(&path);
        w.add_raw("x", SectionKind::Raw, 0, 0, vec![]);
        w.finish().unwrap();
        let c = Container::open(&path).unwrap();
        assert!(matches!(
            c.section("y"),
            Err(StorageError::MissingSection { .. })
        ));
        assert!(c.read_f32("x").is_err(), "raw section is not f32");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTPRSM0rest").unwrap();
        assert!(matches!(
            Container::open(&path),
            Err(StorageError::BadFormat { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("trunc");
        std::fs::write(&path, b"PRS").unwrap();
        assert!(Container::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn positioned_row_reads() {
        let path = tmp("rows");
        let t = Tensor::from_fn(10, 3, |r, c| (r * 3 + c) as f32);
        let mut w = ContainerWriter::create(&path);
        w.add_f32("emb", &t);
        w.finish().unwrap();
        let c = Container::open(&path).unwrap();
        let meta = c.section("emb").unwrap().clone();
        let mut out = vec![0.0_f32; 6];
        c.read_f32_rows(&meta, 4, &mut out).unwrap();
        assert_eq!(out, vec![12., 13., 14., 15., 16., 17.]);
        // Out-of-range row read is rejected.
        let mut out = vec![0.0_f32; 3];
        assert!(c.read_f32_rows(&meta, 10, &mut out).is_err());
        // Non-row-multiple buffer is rejected.
        let mut out = vec![0.0_f32; 4];
        assert!(c.read_f32_rows(&meta, 0, &mut out).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_gives_independent_handle() {
        let path = tmp("reopen");
        let t = Tensor::from_fn(2, 2, |r, c| (r + c) as f32);
        let mut w = ContainerWriter::create(&path);
        w.add_f32("a", &t);
        w.finish().unwrap();
        let c1 = Container::open(&path).unwrap();
        let c2 = c1.reopen().unwrap();
        assert_eq!(c1.read_f32("a").unwrap(), c2.read_f32("a").unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_bytes_filters() {
        let path = tmp("payload");
        let mut w = ContainerWriter::create(&path);
        w.add_raw("layer.0", SectionKind::Raw, 0, 0, vec![0; 10]);
        w.add_raw("layer.1", SectionKind::Raw, 0, 0, vec![0; 20]);
        w.add_raw("embedding", SectionKind::Raw, 0, 0, vec![0; 5]);
        w.finish().unwrap();
        let c = Container::open(&path).unwrap();
        assert_eq!(c.payload_bytes(|n| n.starts_with("layer.")), 30);
        assert_eq!(c.payload_bytes(|_| true), 35);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn section_overrun_detected() {
        let path = tmp("overrun");
        let mut w = ContainerWriter::create(&path);
        w.add_raw("x", SectionKind::Raw, 0, 0, vec![7; 64]);
        w.finish().unwrap();
        // Truncate payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            Container::open(&path),
            Err(StorageError::BadFormat { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
