//! The one page boundary below the scanners.
//!
//! A [`PageCursor`] is everything a scanner needs to know about *getting*
//! pages of one file: the prefetching [`FileStream`], the simulated
//! [`FileId`], the file's units-per-page geometry (tuples for the row file,
//! values for a column file), the row-range window the stream is clamped
//! to, and the `on_corrupt` policy. The row scanner, every node of the
//! pipelined column scanner and every cursor of the single-iterator scanner
//! *configure* one; none of them opens a stream, checksums a page, attaches
//! `(file, page)` context or touches the quarantine by hand.
//!
//! Bytes reach a decoder only through [`VerifiedPage`]: iterating the cursor
//! yields `(page_index, first_row, Result<VerifiedPage>)`, the one checksum
//! pass already spent and the error already located. Position-driven
//! readers use [`PageCursor::seek`], which holds the page containing the
//! requested position; a damaged page keeps its geometric span and every
//! position inside it re-fails with the identical typed error.
//!
//! Under `on_corrupt = Skip` every page of the window is verified once,
//! however it is reached — pulled, targeted by a seek, streamed past on the
//! way to a later position, or drained at the end — and a page bad on every
//! replica is quarantined wherever it is met. Which pages a scan quarantines
//! is therefore a function of its window alone, never of its schedule: not
//! of block boundaries, of which positions a predicate kept, or of where a
//! morsel began.

use rodb_io::{FileId, FileStream, SharedDisk};
use rodb_storage::{Quarantine, QuarantinedPage, Table, VerifiedPage};
use rodb_types::{Error, OnCorrupt, Result};

use crate::degraded::{should_skip, DropSet};
use crate::op::ExecContext;

/// Sequential, window-clamped, checksum-verifying page source of one file.
pub struct PageCursor {
    stream: FileStream,
    disk: SharedDisk,
    quarantine: Quarantine,
    file_id: FileId,
    /// `None` for the row file, else the column this file stores.
    col: Option<usize>,
    /// Full-page capacity in rows — the geometric page → ordinal unit.
    upp: u64,
    /// Row-ordinal window `[start, end)` the owning scanner covers.
    range: (u64, u64),
    policy: OnCorrupt,
    window_bytes: f64,
    /// What [`PageCursor::seek`] holds: the page — checksummed once when it
    /// was pulled, re-opened by every position that lands on it without
    /// another pass — or the error it failed with, spanning rows
    /// `[held_first_row, held_first_row + held_rows)`.
    held: Option<Result<VerifiedPage>>,
    held_first_row: u64,
    held_rows: u64,
}

impl PageCursor {
    /// Open the row file (`col = None`) or one column file of `table`,
    /// clamped to the pages holding `range` (the whole table when `None`):
    /// the scanner never touches, or pays I/O for, the rest of the file.
    pub fn open(
        ctx: &ExecContext,
        table: &Table,
        col: Option<usize>,
        range: Option<(u64, u64)>,
    ) -> Result<PageCursor> {
        let (file, page_size, upp, pages) = match col {
            None => {
                let rs = table.row_storage()?;
                (&rs.file, rs.page_size, rs.tuples_per_page, rs.pages)
            }
            Some(c) => {
                let cs = &table.col_storage()?.columns[c];
                (&cs.file, cs.page_size, cs.values_per_page, cs.pages)
            }
        };
        let file_id = ctx.next_file_id();
        let mut stream = FileStream::new(ctx.disk.clone(), file_id, file.clone(), page_size)?;
        let rows = table.row_count;
        let range = range.map_or((0, rows), |(s, e)| (s.min(rows), e.min(rows)));
        let upp = upp.max(1) as u64;
        let first_page = (range.0 / upp) as usize;
        let end_page = (range.1.div_ceil(upp) as usize).min(pages).max(first_page);
        stream.set_window(first_page, end_page);
        Ok(PageCursor {
            stream,
            disk: ctx.disk.clone(),
            quarantine: table.quarantine.clone(),
            file_id,
            col,
            upp,
            range,
            policy: ctx.sys.on_corrupt,
            window_bytes: ((end_page - first_page) * page_size) as f64,
            held: None,
            held_first_row: 0,
            held_rows: 0,
        })
    }

    /// The (clamped) row-ordinal window this cursor serves.
    pub fn range(&self) -> (u64, u64) {
        self.range
    }

    /// File bytes inside the page window (memory-traffic accounting).
    pub fn window_bytes(&self) -> f64 {
        self.window_bytes
    }

    /// Index of the page the next pull would return; `None` at the end of
    /// the window. Scanners peek this to consult zone maps.
    pub fn peek_index(&self) -> Option<usize> {
        (self.stream.remaining() > 0).then(|| self.stream.peek_index())
    }

    /// Skip the next page without transferring it (a zone map proved it
    /// holds no qualifying value).
    pub fn skip_zoned(&mut self) {
        self.stream.skip_pages_zoned(1);
    }

    /// Read past every remaining page. Under `Skip` each is verified and a
    /// page bad on every replica is quarantined, its ordinals added to
    /// `dropped`; otherwise this is I/O cost only, nothing is verified.
    pub fn drain(&mut self, dropped: &mut DropSet) {
        if self.policy != OnCorrupt::Skip {
            while self.stream.next_page().is_some() {}
            return;
        }
        while let Some((page_index, verified)) = self.pull() {
            if verified.is_err_and(|e| self.skips(&e)) {
                self.quarantine(page_index, dropped);
            }
        }
    }

    /// Attach this file's `(file, page)` context to a decode-side error.
    pub fn locate(&self, e: Error, page_index: u64) -> Error {
        e.with_page_context(self.file_id.0, page_index)
    }

    /// Whether the policy absorbs `e` as a degraded skip.
    fn skips(&self, e: &Error) -> bool {
        should_skip(self.policy, e)
    }

    /// Quarantine page `page_index` (bad on every replica) and drop exactly
    /// the ordinals it would hold by geometry — never its own claimed count
    /// — clamped to this cursor's window.
    pub fn quarantine(&self, page_index: u64, dropped: &mut DropSet) {
        let page = match self.col {
            None => QuarantinedPage::Row { page: page_index },
            Some(col) => QuarantinedPage::Col {
                col,
                page: page_index,
            },
        };
        if self.quarantine.insert(page) {
            self.disk.borrow_mut().note_quarantined(1);
        }
        let start = (page_index * self.upp).max(self.range.0);
        let end = ((page_index + 1) * self.upp).min(self.range.1);
        dropped.add(start, end);
    }

    /// The `on_corrupt` policy applied to `e`, raised seeking row `pos`:
    /// under `Skip` a page bad on every replica is quarantined
    /// ([`PageCursor::quarantine`], the page that would hold `pos`) and the
    /// scan carries on without the row; any other error propagates.
    pub fn absorb(&self, e: Error, pos: u64, dropped: &mut DropSet) -> Result<()> {
        if !self.skips(&e) {
            return Err(e);
        }
        self.quarantine(pos / self.upp, dropped);
        Ok(())
    }

    /// Sequential pull with the `on_corrupt` policy applied:
    /// `(page_index, first_row, page)`, `None` at the end of the window. A
    /// page bad on every replica is quarantined under `Skip` — its ordinals
    /// added to `dropped` — and comes back as `None` in its place; any other
    /// error propagates.
    pub fn next_or_skip(
        &mut self,
        dropped: &mut DropSet,
    ) -> Result<Option<(u64, u64, Option<VerifiedPage>)>> {
        let Some((page_index, first_row, page)) = self.next() else {
            return Ok(None);
        };
        let page = match page {
            Ok(page) => Some(page),
            Err(e) if self.skips(&e) => {
                self.quarantine(page_index, dropped);
                None
            }
            Err(e) => return Err(e),
        };
        Ok(Some((page_index, first_row, page)))
    }

    /// Pull the next page and spend its one checksum pass.
    fn pull(&mut self) -> Option<(u64, Result<VerifiedPage>)> {
        let p = self.stream.next_page()?;
        let page_index = p.page_index as u64;
        let verified = VerifiedPage::verify(&p).map_err(|e| self.locate(e, page_index));
        Some((page_index, verified))
    }

    /// Whether a clean page containing row `pos` is already held — the
    /// per-position fast path in front of [`PageCursor::seek`].
    #[inline]
    pub fn holds(&self, pos: u64) -> bool {
        matches!(self.held, Some(Ok(_))) && pos < self.held_first_row + self.held_rows
    }

    /// Advance until the held page contains row `pos`. `on_page(page,
    /// is_target)` runs once for every clean page pulled on the way (eager
    /// decoders hook in here). A page that fails — its checksum, or
    /// `on_page` — is held as that error over its geometric span, so every
    /// later position inside it re-fails identically. A bad page the reader
    /// only streams past is quarantined under `Skip`, its ordinals added to
    /// `dropped`, and fails the seek otherwise.
    pub fn seek(
        &mut self,
        pos: u64,
        dropped: &mut DropSet,
        mut on_page: impl FnMut(&VerifiedPage, bool) -> Result<()>,
    ) -> Result<()> {
        loop {
            if let Some(held) = &self.held {
                if pos < self.held_first_row + self.held_rows {
                    return held.as_ref().map(|_| ()).map_err(Error::clone);
                }
            }
            let Some((page_index, verified)) = self.pull() else {
                let what = self
                    .col
                    .map_or("row".to_string(), |c| format!("column {c}"));
                return Err(Error::corrupt(format!("position {pos} beyond {what} file")));
            };
            // Boundaries come from file geometry, not a running sum of
            // per-page counts: a damaged page still spans its slots.
            self.held_first_row = page_index * self.upp;
            let loaded = verified.and_then(|v| {
                let rows = v.count() as u64;
                on_page(&v, pos < self.held_first_row + rows)
                    .map_err(|e| self.locate(e, page_index))?;
                Ok((v, rows))
            });
            match loaded {
                Ok((v, rows)) => {
                    self.held_rows = rows;
                    self.held = Some(Ok(v));
                }
                Err(e) => {
                    self.held_rows = self.upp;
                    self.held = Some(Err(e.clone()));
                    if pos < self.held_first_row + self.upp || !self.skips(&e) {
                        return Err(e);
                    }
                    self.quarantine(page_index, dropped);
                }
            }
        }
    }

    /// The rows `[first, end)` of the held clean page, after a successful
    /// [`PageCursor::seek`]: every later position below `end` is on it.
    #[inline]
    pub fn held_span(&self) -> (u64, u64) {
        (self.held_first_row, self.held_first_row + self.held_rows)
    }

    /// The page the last [`PageCursor::seek`] landed on, and its index in
    /// the file: the error that seek failed with, if it failed.
    pub fn held(&self) -> Result<(&VerifiedPage, u64)> {
        match &self.held {
            Some(Ok(page)) => Ok((page, self.held_first_row / self.upp)),
            Some(Err(e)) => Err(e.clone()),
            None => Err(Error::InvalidPlan("no page held before a seek".into())),
        }
    }
}

/// Sequential pulls: `(page_index, first_row, page)` — ordinals from file
/// geometry, so a damaged page never shifts the positions after it.
impl Iterator for PageCursor {
    type Item = (u64, u64, Result<VerifiedPage>);

    fn next(&mut self) -> Option<Self::Item> {
        let (page_index, verified) = self.pull()?;
        Some((page_index, page_index * self.upp, verified))
    }
}
