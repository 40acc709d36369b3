//! Fixed-size frames of serialized tuples — the unit of data movement.
//!
//! Layout follows Hyracks: tuple data grows from the front of the buffer;
//! a trailer at the very end records the tuple count and, growing backward,
//! one `u32` *end offset* per tuple:
//!
//! ```text
//! +-------------------------------------------------------------+
//! | tuple 0 | tuple 1 | ... free ... | endN..end1 end0 | count  |
//! +-------------------------------------------------------------+
//! ```
//!
//! Each tuple is: `u16 field_count`, `field_count × u32` field end offsets
//! (relative to the end of the header), then the field bytes. Fields carry
//! serialized [`jdm::binary`] items (the runtime never splits a tuple
//! across frames; an oversized tuple gets a dedicated "big frame", which
//! is Hyracks' behaviour for large records).

use crate::error::{DataflowError, Result};

/// Default frame capacity (32 KiB, Hyracks' classic default).
pub const DEFAULT_FRAME_SIZE: usize = 32 * 1024;

/// An immutable, sealed frame.
#[derive(Debug, Clone)]
pub struct Frame {
    bytes: Box<[u8]>,
}

impl Frame {
    /// Wrap raw frame bytes (must already contain a valid trailer).
    pub fn from_bytes(bytes: Box<[u8]>) -> Self {
        Frame { bytes }
    }

    /// Total size in bytes (data + free space + trailer).
    #[inline]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Number of tuples in the frame.
    #[inline]
    pub fn tuple_count(&self) -> usize {
        let n = self.bytes.len();
        u32::from_le_bytes(self.bytes[n - 4..].try_into().expect("trailer")) as usize
    }

    #[inline]
    fn tuple_end(&self, i: usize) -> usize {
        let n = self.bytes.len();
        let at = n - 4 - 4 * (i + 1);
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("trailer entry")) as usize
    }

    /// Zero-copy access to tuple `i`.
    #[inline]
    pub fn tuple(&self, i: usize) -> TupleRef<'_> {
        debug_assert!(i < self.tuple_count());
        let start = if i == 0 { 0 } else { self.tuple_end(i - 1) };
        let end = self.tuple_end(i);
        TupleRef {
            bytes: &self.bytes[start..end],
        }
    }

    /// Iterate all tuples.
    pub fn tuples(&self) -> impl Iterator<Item = TupleRef<'_>> {
        (0..self.tuple_count()).map(move |i| self.tuple(i))
    }

    /// Bytes actually used by tuple data (for network accounting).
    pub fn data_len(&self) -> usize {
        let n = self.tuple_count();
        if n == 0 {
            0
        } else {
            self.tuple_end(n - 1)
        }
    }
}

/// Zero-copy view of one tuple inside a frame.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    bytes: &'a [u8],
}

impl<'a> TupleRef<'a> {
    /// Reconstruct a tuple view from raw tuple bytes (used by operators
    /// that buffer tuples outside frames, e.g. join build tables).
    pub fn from_bytes(bytes: &'a [u8]) -> Self {
        TupleRef { bytes }
    }

    /// The tuple's raw bytes (header + fields).
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Number of fields.
    #[inline]
    pub fn field_count(&self) -> usize {
        u16::from_le_bytes(self.bytes[..2].try_into().expect("field count")) as usize
    }

    #[inline]
    fn header_len(&self) -> usize {
        2 + 4 * self.field_count()
    }

    #[inline]
    fn field_end(&self, i: usize) -> usize {
        let at = 2 + 4 * i;
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("field end")) as usize
    }

    /// Raw bytes of field `i` (a serialized [`jdm::binary`] item).
    #[inline]
    pub fn field(&self, i: usize) -> &'a [u8] {
        debug_assert!(
            i < self.field_count(),
            "field {i} of {}",
            self.field_count()
        );
        let h = self.header_len();
        let start = if i == 0 { h } else { h + self.field_end(i - 1) };
        let end = h + self.field_end(i);
        &self.bytes[start..end]
    }

    /// All fields.
    pub fn fields(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.field_count()).map(move |i| self.field(i))
    }
}

/// Builds frames by appending tuples; produces sealed [`Frame`]s.
pub struct FrameAppender {
    capacity: usize,
    data: Vec<u8>,
    ends: Vec<u32>,
    /// Allow frames larger than `capacity` for single oversized tuples.
    allow_big: bool,
}

impl FrameAppender {
    /// Appender producing frames of `capacity` bytes (oversized tuples get
    /// dedicated big frames).
    pub fn new(capacity: usize) -> Self {
        FrameAppender {
            capacity,
            data: Vec::with_capacity(capacity),
            ends: Vec::new(),
            allow_big: true,
        }
    }

    /// Like [`FrameAppender::new`] but rejecting oversized tuples, which
    /// models a hard Hyracks frame-size restriction (§4.2 mentions the
    /// dataflow frame size restriction the pipelining rules satisfy).
    pub fn new_strict(capacity: usize) -> Self {
        FrameAppender {
            capacity,
            data: Vec::with_capacity(capacity),
            ends: Vec::new(),
            allow_big: false,
        }
    }

    /// Bytes a tuple with the given field lengths occupies.
    fn tuple_size(fields: &[&[u8]]) -> usize {
        2 + 4 * fields.len() + fields.iter().map(|f| f.len()).sum::<usize>()
    }

    fn trailer_size(ntuples: usize) -> usize {
        4 + 4 * ntuples
    }

    /// Current number of buffered tuples.
    pub fn tuple_count(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Whether a tuple of `tsize` bytes fits now: `Ok(false)` when the
    /// frame is full (caller should [`FrameAppender::take_frame`] and
    /// retry), `Err` when it can never fit and big frames are disabled.
    fn fits(&self, tsize: usize) -> Result<bool> {
        let needed = self.data.len() + tsize + Self::trailer_size(self.ends.len() + 1);
        if needed <= self.capacity {
            return Ok(true);
        }
        if tsize + Self::trailer_size(1) > self.capacity {
            // Oversized tuple: only representable as a big frame.
            if !self.allow_big {
                return Err(DataflowError::TupleTooLarge {
                    tuple: tsize,
                    capacity: self.capacity,
                });
            }
            // Flush the current frame first; alone, it gets a big frame.
            return Ok(self.is_empty());
        }
        Ok(false)
    }

    /// Try to append; returns `Ok(false)` when the frame is full (caller
    /// should [`FrameAppender::take_frame`] and retry), `Err` when a single
    /// tuple can never fit and big frames are disabled.
    pub fn append(&mut self, fields: &[&[u8]]) -> Result<bool> {
        if !self.fits(Self::tuple_size(fields))? {
            return Ok(false);
        }
        self.data
            .extend_from_slice(&(fields.len() as u16).to_le_bytes());
        let mut end = 0u32;
        for f in fields {
            end += f.len() as u32;
            self.data.extend_from_slice(&end.to_le_bytes());
        }
        for f in fields {
            self.data.extend_from_slice(f);
        }
        self.ends.push(self.data.len() as u32);
        Ok(true)
    }

    /// Append `base`'s fields followed by `extra` — the bytes
    /// [`FrameAppender::append`] writes for that field list, built without
    /// collecting it: the base's field ends carry over (they are relative
    /// to the end of the header) and its data is copied in one piece.
    pub fn append_extended<'e, I>(&mut self, base: &TupleRef<'_>, extra: I) -> Result<bool>
    where
        I: ExactSizeIterator<Item = &'e [u8]> + Clone,
    {
        let n = base.field_count();
        let header = base.header_len();
        let (base_ends, base_data) = base.bytes()[2..].split_at(header - 2);
        let extra_len: usize = extra.clone().map(<[u8]>::len).sum();
        let count = n + extra.len();
        if !self.fits(2 + 4 * count + base_data.len() + extra_len)? {
            return Ok(false);
        }
        self.data.extend_from_slice(&(count as u16).to_le_bytes());
        self.data.extend_from_slice(base_ends);
        let mut end = base_data.len() as u32;
        for f in extra.clone() {
            end += f.len() as u32;
            self.data.extend_from_slice(&end.to_le_bytes());
        }
        self.data.extend_from_slice(base_data);
        for f in extra {
            self.data.extend_from_slice(f);
        }
        self.ends.push(self.data.len() as u32);
        Ok(true)
    }

    /// Copy a whole existing tuple (used by repartitioners and unions).
    pub fn append_tuple(&mut self, t: &TupleRef<'_>) -> Result<bool> {
        if !self.fits(t.bytes().len())? {
            return Ok(false);
        }
        self.data.extend_from_slice(t.bytes());
        self.ends.push(self.data.len() as u32);
        Ok(true)
    }

    /// Seal the buffered tuples into a frame and reset the appender.
    /// Returns `None` when empty.
    pub fn take_frame(&mut self) -> Option<Frame> {
        if self.ends.is_empty() {
            return None;
        }
        let trailer = Self::trailer_size(self.ends.len());
        // Frames are fixed-size (Hyracks' model); a lone oversized tuple
        // gets a dedicated bigger frame.
        let total = self.capacity.max(self.data.len() + trailer);
        let mut bytes = vec![0u8; total];
        bytes[..self.data.len()].copy_from_slice(&self.data);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&(self.ends.len() as u32).to_le_bytes());
        for (i, end) in self.ends.iter().enumerate() {
            let at = n - 4 - 4 * (i + 1);
            bytes[at..at + 4].copy_from_slice(&end.to_le_bytes());
        }
        self.data.clear();
        self.ends.clear();
        Some(Frame::from_bytes(bytes.into_boxed_slice()))
    }
}

/// Helper: build a single-tuple-stream frame sequence from item fields.
/// Used widely in tests.
pub fn frames_from_rows(rows: &[Vec<Vec<u8>>], capacity: usize) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut app = FrameAppender::new(capacity);
    for row in rows {
        let fields: Vec<&[u8]> = row.iter().map(|f| f.as_slice()).collect();
        loop {
            match app.append(&fields) {
                Ok(true) => break,
                Ok(false) => out.extend(app.take_frame()),
                Err(e) => panic!("append failed: {e}"),
            }
        }
    }
    out.extend(app.take_frame());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: u8, len: usize) -> Vec<u8> {
        vec![n; len]
    }

    #[test]
    fn append_and_read_back() {
        let mut app = FrameAppender::new(256);
        assert!(app.append(&[&field(1, 10), &field(2, 5)]).unwrap());
        assert!(app.append(&[&field(3, 0), &field(4, 7)]).unwrap());
        let frame = app.take_frame().unwrap();
        assert_eq!(frame.tuple_count(), 2);
        let t0 = frame.tuple(0);
        assert_eq!(t0.field_count(), 2);
        assert_eq!(t0.field(0), &field(1, 10)[..]);
        assert_eq!(t0.field(1), &field(2, 5)[..]);
        let t1 = frame.tuple(1);
        assert_eq!(t1.field(0), &[] as &[u8]);
        assert_eq!(t1.field(1), &field(4, 7)[..]);
    }

    #[test]
    fn frame_fills_and_rolls_over() {
        let mut app = FrameAppender::new(128);
        let mut frames = Vec::new();
        let mut appended = 0;
        for _ in 0..50 {
            let f = field(9, 20);
            loop {
                if app.append(&[&f]).unwrap() {
                    appended += 1;
                    break;
                }
                frames.push(app.take_frame().unwrap());
            }
        }
        frames.extend(app.take_frame());
        assert_eq!(appended, 50);
        let total: usize = frames.iter().map(Frame::tuple_count).sum();
        assert_eq!(total, 50);
        assert!(frames.len() > 1, "should have rolled over");
        // Every regular frame stays within capacity.
        for f in &frames {
            assert!(f.size() <= 128);
        }
    }

    #[test]
    fn oversized_tuple_gets_big_frame() {
        let mut app = FrameAppender::new(64);
        let big = field(7, 500);
        assert!(app.append(&[&big]).unwrap());
        let frame = app.take_frame().unwrap();
        assert_eq!(frame.tuple_count(), 1);
        assert!(frame.size() > 64);
        assert_eq!(frame.tuple(0).field(0), &big[..]);
    }

    #[test]
    fn oversized_tuple_flushes_pending_first() {
        let mut app = FrameAppender::new(64);
        assert!(app.append(&[&field(1, 8)]).unwrap());
        let big = field(7, 500);
        assert!(!app.append(&[&big]).unwrap(), "must ask for a flush first");
        let f1 = app.take_frame().unwrap();
        assert_eq!(f1.tuple_count(), 1);
        assert!(app.append(&[&big]).unwrap());
    }

    #[test]
    fn strict_appender_rejects_oversized() {
        let mut app = FrameAppender::new_strict(64);
        let big = field(7, 500);
        match app.append(&[&big]) {
            Err(DataflowError::TupleTooLarge { .. }) => {}
            other => panic!("expected TupleTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn append_tuple_copies_faithfully() {
        let mut app = FrameAppender::new(256);
        app.append(&[&field(1, 3), &field(2, 4), &field(3, 5)])
            .unwrap();
        let f = app.take_frame().unwrap();
        let t = f.tuple(0);

        let mut app2 = FrameAppender::new(256);
        assert!(app2.append_tuple(&t).unwrap());
        let f2 = app2.take_frame().unwrap();
        let t2 = f2.tuple(0);
        assert_eq!(t2.field_count(), 3);
        for i in 0..3 {
            assert_eq!(t.field(i), t2.field(i));
        }
    }

    #[test]
    fn append_extended_writes_the_bytes_of_the_joined_field_list() {
        let base_fields = [field(1, 3), field(2, 0), field(3, 5)];
        let extras = [field(4, 6), field(5, 0), field(6, 2)];
        for nbase in 0..=base_fields.len() {
            for nextra in 0..=extras.len() {
                let base: Vec<&[u8]> = base_fields[..nbase].iter().map(Vec::as_slice).collect();
                let extra: Vec<&[u8]> = extras[..nextra].iter().map(Vec::as_slice).collect();
                let mut src = FrameAppender::new(256);
                assert!(src.append(&base).unwrap());
                let src = src.take_frame().unwrap();

                let mut joined = base.clone();
                joined.extend(&extra);
                let mut expected = FrameAppender::new(256);
                assert!(expected.append(&joined).unwrap());
                let mut got = FrameAppender::new(256);
                assert!(got
                    .append_extended(&src.tuple(0), extra.iter().copied())
                    .unwrap());
                assert_eq!(
                    got.take_frame().unwrap().bytes,
                    expected.take_frame().unwrap().bytes,
                    "{nbase} base fields + {nextra} extras"
                );
            }
        }
        // A frame that cannot take the tuple asks for a flush, as `append`.
        let mut src = FrameAppender::new(256);
        src.append(&[&field(1, 40)]).unwrap();
        let src = src.take_frame().unwrap();
        let mut app = FrameAppender::new(64);
        assert!(app.append(&[&field(9, 20)]).unwrap());
        let extra = field(2, 10);
        assert!(!app
            .append_extended(&src.tuple(0), std::iter::once(extra.as_slice()))
            .unwrap());
    }

    #[test]
    fn empty_appender_yields_no_frame() {
        let mut app = FrameAppender::new(64);
        assert!(app.take_frame().is_none());
    }

    #[test]
    fn data_len_reflects_payload() {
        let mut app = FrameAppender::new(1024);
        app.append(&[&field(0, 10)]).unwrap();
        let f = app.take_frame().unwrap();
        // 2 (count) + 4 (end) + 10 (data)
        assert_eq!(f.data_len(), 16);
    }

    #[test]
    fn frames_from_rows_helper() {
        let rows: Vec<Vec<Vec<u8>>> = (0..10)
            .map(|i| vec![field(i as u8, 8), field(i as u8, 4)])
            .collect();
        let frames = frames_from_rows(&rows, 64);
        let total: usize = frames.iter().map(Frame::tuple_count).sum();
        assert_eq!(total, 10);
    }
}
