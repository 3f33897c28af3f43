//! Backpressured sink streaming: the bounded queue between the virtual
//! clock and the export plane.
//!
//! Records produced by jobs land in a [`BoundedSink`] — a bounded
//! in-memory queue in front of any [`DataSink`]. The overflow policy is
//! deterministic and lossless: when the queue reaches capacity it
//! *blocks the virtual clock* (the push call drains the queue into the
//! sink before returning) rather than dropping records. Sim-time never
//! advances past an undrained queue, so the export stream's content and
//! order are a pure function of the schedule, not of sink speed.
//!
//! [`CsvFile`] is the durable endpoint the agent binary uses: a
//! single-dataset CSV file that counts every byte it accepts, so the
//! agent checkpoint can record a durable offset and a resumed process
//! can truncate back to exactly the synced prefix.
//!
//! A write failure never aborts a drain mid-flight: [`CsvFile`] goes
//! *sick* (sticky) — further rows become no-ops and [`CsvFile::sync`]
//! returns the stored error — so the agent can still cut a final
//! checkpoint at the last durable offset and surface the failure as a
//! typed value instead of a panic.

use roam_fleet::{SessionRecord, SessionRows};
use roam_measure::{DataSink, Dataset, Exporter, SharedSink};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// A bounded queue of session records in front of a shared sink.
pub struct BoundedSink {
    target: SharedSink,
    cap: usize,
    buf: Vec<SessionRecord>,
    records: u64,
    flushes: u64,
}

impl BoundedSink {
    /// A queue of at most `cap` records (clamped to ≥ 1) draining into
    /// `target`.
    #[must_use]
    pub fn new(target: SharedSink, cap: usize) -> Self {
        let cap = cap.max(1);
        BoundedSink {
            target,
            cap,
            buf: Vec::with_capacity(cap),
            records: 0,
            flushes: 0,
        }
    }

    /// Queue records; whenever the queue reaches capacity it drains
    /// synchronously (the "block the clock" policy — the caller does not
    /// get control back until the sink has absorbed the overflow).
    pub fn extend(&mut self, records: &[SessionRecord]) {
        for &rec in records {
            self.buf.push(rec);
            self.records += 1;
            if self.buf.len() >= self.cap {
                self.flush();
            }
        }
    }

    /// Drain the queue into the sink now (checkpoint and shutdown path).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = self.target.lock().expect("export sink poisoned");
        SessionRows(&self.buf).export_rows(Dataset::Sessions, &mut *sink);
        self.buf.clear();
        self.flushes += 1;
    }

    /// Records accepted over the queue's lifetime.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Times the queue drained into the sink.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

/// A single-dataset CSV file sink that counts accepted bytes.
///
/// Rows render through the same `String` thin view every other CSV
/// export uses, straight onto an internal write buffer; [`CsvFile::sync`]
/// pushes the buffer to disk and fsyncs, returning the durable byte
/// offset. [`CsvFile::resume`] reopens a file at a recorded offset,
/// truncating any unsynced tail a crash may have left behind.
pub struct CsvFile {
    file: File,
    ds: Dataset,
    pending: String,
    bytes: u64,
    /// First write failure, sticky: once set, rows no-op and `sync`
    /// keeps returning it. `bytes` stops advancing at the same instant,
    /// so a checkpoint cut afterwards records the last honest offset.
    sick: Option<std::io::Error>,
}

/// Flush the write buffer once it holds this much.
const PENDING_FLUSH: usize = 64 * 1024;

impl CsvFile {
    /// Create (truncate) `path` and write the dataset header.
    pub fn create(path: &Path, ds: Dataset) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut pending = String::with_capacity(PENDING_FLUSH + 256);
        pending.push_str(ds.header());
        pending.push('\n');
        Ok(CsvFile {
            file,
            ds,
            bytes: pending.len() as u64,
            pending,
            sick: None,
        })
    }

    /// Reopen `path` with `bytes` of durable prefix: refuse a file
    /// shorter than the recorded offset (the checkpoint is then ahead of
    /// the data — unrecoverable), truncate anything past it.
    pub fn resume(path: &Path, ds: Dataset, bytes: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len < bytes {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: {len} bytes on disk but the checkpoint recorded {bytes}",
                    path.display()
                ),
            ));
        }
        file.set_len(bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(CsvFile {
            file,
            ds,
            pending: String::with_capacity(PENDING_FLUSH + 256),
            bytes,
            sick: None,
        })
    }

    /// Bytes accepted (buffered + written) since the header.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Write the buffer through and fsync; returns the durable offset.
    /// A sick sink returns its stored error (and keeps it) instead of
    /// pretending the offset advanced.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        if let Some(e) = &self.sick {
            return Err(std::io::Error::new(e.kind(), e.to_string()));
        }
        if !self.pending.is_empty() {
            if let Err(e) = self.file.write_all(self.pending.as_bytes()) {
                return Err(self.go_sick(e));
            }
            self.pending.clear();
        }
        if let Err(e) = self.file.sync_data() {
            return Err(self.go_sick(e));
        }
        Ok(self.bytes)
    }

    /// Enter the sticky failure state: drop the unwritable buffer and
    /// roll `bytes` back to the durable prefix so checkpoints record an
    /// honest offset. Returns a copy of the error for the caller.
    fn go_sick(&mut self, e: std::io::Error) -> std::io::Error {
        let copy = std::io::Error::new(e.kind(), e.to_string());
        self.bytes -= self.pending.len() as u64;
        self.pending.clear();
        self.sick = Some(e);
        copy
    }
}

impl DataSink for CsvFile {
    fn row(&mut self, ds: Dataset, cells: &[roam_measure::CellValue<'_>]) {
        debug_assert_eq!(ds, self.ds, "CsvFile is single-dataset");
        if self.sick.is_some() {
            return; // sticky: the first failure already froze the offset
        }
        let before = self.pending.len();
        self.pending.row(ds, cells);
        self.bytes += (self.pending.len() - before) as u64;
        if self.pending.len() >= PENDING_FLUSH {
            if let Err(e) = self.file.write_all(self.pending.as_bytes()) {
                self.go_sick(e);
                return;
            }
            self.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_fleet::SessionKind;
    use roam_measure::campaign::RecordTag;
    use roam_measure::{MeasureStatus, MemorySink};
    use std::sync::{Arc, Mutex};

    fn rec(rtt: f64) -> SessionRecord {
        use roam_cellular::{Rat, SimType};
        use roam_ipx::RoamingArch;

        SessionRecord {
            tag: RecordTag {
                country: roam_geo::Country::MEASURED[0],
                sim_type: SimType::Esim,
                arch: RoamingArch::LocalBreakout,
                rat: Rat::Lte,
            },
            kind: SessionKind::Rtt,
            rtt_ms: Some(rtt),
            lookup_ms: None,
            mb: None,
            status: MeasureStatus::Ok,
        }
    }

    #[test]
    fn queue_blocks_at_capacity_and_never_drops() {
        let mem = Arc::new(Mutex::new(MemorySink::default()));
        let mut q = BoundedSink::new(mem.clone(), 4);
        let records: Vec<SessionRecord> = (0..10).map(|i| rec(f64::from(i))).collect();
        q.extend(&records[..3]);
        assert_eq!(q.buf.len(), 3, "under capacity: nothing drained yet");
        assert_eq!(q.flushes(), 0);
        q.extend(&records[3..]);
        // 10 records through a cap of 4: flushed at 4 and 8, 2 left.
        assert_eq!(q.flushes(), 2);
        assert_eq!(q.buf.len(), 2);
        q.flush();
        assert_eq!(q.records(), 10);
        let tables = mem.lock().unwrap().clone().into_tables();
        let (_, csv) = &tables[0];
        assert_eq!(
            csv.lines().count(),
            11,
            "header + all 10 records, none dropped"
        );
    }

    #[test]
    fn flush_boundaries_do_not_change_the_bytes() {
        let through = {
            let mem = Arc::new(Mutex::new(MemorySink::default()));
            let mut q = BoundedSink::new(mem.clone(), 1_000);
            q.extend(&(0..25).map(|i| rec(f64::from(i))).collect::<Vec<_>>());
            q.flush();
            let tables = mem.lock().unwrap().clone().into_tables();
            tables
        };
        let chopped = {
            let mem = Arc::new(Mutex::new(MemorySink::default()));
            let mut q = BoundedSink::new(mem.clone(), 3);
            q.extend(&(0..25).map(|i| rec(f64::from(i))).collect::<Vec<_>>());
            q.flush();
            let tables = mem.lock().unwrap().clone().into_tables();
            tables
        };
        assert_eq!(through, chopped);
    }

    #[test]
    fn csv_file_round_trips_and_resumes_at_the_synced_offset() {
        let dir = std::env::temp_dir().join(format!("roam-service-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sessions.csv");

        let mut sink = CsvFile::create(&path, Dataset::Sessions).unwrap();
        SessionRows(&[rec(1.0), rec(2.0)]).export_rows(Dataset::Sessions, &mut sink);
        let synced = sink.sync().unwrap();
        // Unsynced tail, then a simulated crash (drop without sync).
        SessionRows(&[rec(3.0)]).export_rows(Dataset::Sessions, &mut sink);
        drop(sink);

        let mut resumed = CsvFile::resume(&path, Dataset::Sessions, synced).unwrap();
        SessionRows(&[rec(3.0)]).export_rows(Dataset::Sessions, &mut resumed);
        let total = resumed.sync().unwrap();
        drop(resumed);

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.len() as u64, total);
        assert_eq!(text.lines().count(), 4, "header + 3 records exactly once");

        // A checkpoint ahead of the file is a refusal, not a restart.
        assert!(CsvFile::resume(&path, Dataset::Sessions, total + 10).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A full device (`/dev/full` reports `ENOSPC` on every write) must
    /// flip the sink sick, not panic: rows become no-ops, the byte
    /// counter freezes at the durable prefix (here zero — nothing ever
    /// landed), and every `sync` after the first failure returns the
    /// same stored error.
    #[test]
    #[cfg(unix)]
    fn write_failure_goes_sticky_instead_of_panicking() {
        let dev_full = Path::new("/dev/full");
        if !dev_full.exists() {
            return; // minimal container without /dev/full
        }
        let mut sink = CsvFile::create(dev_full, Dataset::Sessions).unwrap();
        // Push well past the pending-flush threshold: the internal
        // flush hits ENOSPC and must go sick, not panic.
        let records: Vec<SessionRecord> = (0..20_000).map(|i| rec(f64::from(i))).collect();
        SessionRows(&records).export_rows(Dataset::Sessions, &mut sink);
        assert!(sink.sick.is_some(), "ENOSPC must stick");
        assert_eq!(sink.bytes(), 0, "no byte was ever durable");
        let before = sink.bytes();
        SessionRows(&[rec(1.0)]).export_rows(Dataset::Sessions, &mut sink);
        assert_eq!(sink.bytes(), before, "sick sink no-ops new rows");
        assert!(sink.sync().is_err(), "sync reports the stored error");
        assert!(sink.sync().is_err(), "and keeps reporting it (sticky)");
    }
}
