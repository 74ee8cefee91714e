//! The one-pass text-run scan: where a run ends, how many lines and
//! characters it spans, and whether it holds a metacharacter.
//!
//! A text run is most of a document's bytes, so each of its bytes is read
//! once. Eight bytes at a time as a `u64` word ("SWAR"), a run's start,
//! its end and its short runs are tested for `<`, newlines, character
//! starts and `&` `<` `>` together; in between, whole blocks of
//! [`BLOCK`] bytes take a loop shape the compiler turns into vector
//! compares and sums.

use crate::cursor::begins_markup;

/// Bytes per block of the scan's vector path.
const BLOCK: usize = 32;

const LO: u64 = u64::from_ne_bytes([0x01; 8]);
const HI: u64 = u64::from_ne_bytes([0x80; 8]);
const LOW7: u64 = u64::from_ne_bytes([0x7F; 8]);

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// Bit 7 of every byte of `word` that is zero, and perhaps of some bytes
/// above (more significant than) such a byte. So the lowest mark is
/// exact, and so is "any mark in the low `n` bytes".
fn zero_marks(word: u64) -> u64 {
    word.wrapping_sub(LO) & !word & HI
}

/// Bit 7 of exactly the bytes of `word` that are zero.
fn zero_marks_exact(word: u64) -> u64 {
    !(((word & LOW7) + LOW7) | word) & HI
}

/// Number of bytes of `marks` whose bit 7 is set; every other bit must be
/// clear. The multiply sums the eight 0/1 bytes into the top byte.
fn count_marks(marks: u64) -> u32 {
    ((marks >> 7).wrapping_mul(LO) >> 56) as u32
}

/// Whether `b` begins a character: it is not a UTF-8 continuation byte
/// (`0b10xx_xxxx`).
pub(crate) fn is_char_start(b: u8) -> bool {
    (b as i8) >= -0x40
}

/// What one pass over a text run learned: where it ends and what the
/// position and the `Text` token need from its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Run {
    /// Length of the run in bytes.
    pub(crate) len: usize,
    /// Newlines in the run.
    pub(crate) newlines: u32,
    /// Characters after the run's last newline, or in the whole run if it
    /// holds none.
    pub(crate) tail: u32,
    /// The run holds a `&`, `<` or `>`.
    pub(crate) has_metachar: bool,
}

impl Run {
    /// Count the low `n` bytes of `word` (little-endian) into the run;
    /// return whether they hold a newline.
    fn count_word(&mut self, word: u64, n: usize) -> bool {
        let mask = if n >= 8 { !0 } else { (1u64 << (8 * n)) - 1 };
        // Bit 7 of a byte that is not `0b10xx_xxxx`: bit 7 clear, or bit
        // 6 (shifted up into bit 7) set.
        let starts = (!word | (word << 1)) & HI & mask;
        let newlines = zero_marks_exact(word ^ splat(b'\n')) & mask;
        // `<` (0x3C) and `>` (0x3E) are the two bytes that read `>` with
        // bit 1 forced on.
        let meta = zero_marks(word ^ splat(b'&')) | zero_marks((word | splat(2)) ^ splat(b'>'));
        self.has_metachar |= meta & mask != 0;
        if newlines == 0 {
            self.tail += count_marks(starts);
        } else {
            self.newlines += count_marks(newlines);
            // Bit 7 of the last newline byte; the bytes above it follow
            // that newline.
            let last = 63 - newlines.leading_zeros();
            self.tail = count_marks(starts.checked_shr(last + 1).unwrap_or(0));
        }
        newlines != 0
    }
}

/// Scan the text run at the start of `bytes` in one pass.
///
/// With `STOP_AT_MARKUP` the run ends before the first `<` whose next byte
/// begins markup (a bare `<`, or one at the end of `bytes`, is text);
/// without it the run is all of `bytes`.
///
/// Words are read through the run's first [`BLOCK`] bytes and through any
/// block that holds a `<`; blocks free of `<` in between are summed whole,
/// with no early exit inside a block. A block's newline count says nothing
/// of where its last newline falls, so the characters after that newline
/// are counted once, at the end, for the last such block only.
pub(crate) fn scan_run<const STOP_AT_MARKUP: bool>(bytes: &[u8]) -> Run {
    // The commonest run of all: the line break between two tags.
    if let [b'\n', b'<', next, ..] = *bytes {
        if STOP_AT_MARKUP && begins_markup(next) {
            return Run {
                len: 1,
                newlines: 1,
                tail: 0,
                has_metachar: false,
            };
        }
    }
    let mut run = Run::default();
    let mut i = 0;
    // Start of the block holding the last newline, while no word has
    // passed a newline since: its characters after that newline are not
    // yet in `run.tail`.
    let mut nl_block = None;
    'scan: loop {
        let words_end = i + BLOCK;
        while i < words_end {
            let (word, avail) = match bytes.get(i..i + 8) {
                Some(word) => (
                    u64::from_le_bytes(word.try_into().expect("an eight-byte slice")),
                    8,
                ),
                None if i == bytes.len() => break 'scan,
                None => {
                    // Pad with continuation bytes: not `<`, not a newline,
                    // not a metacharacter and not a character start.
                    let rest = &bytes[i..];
                    let mut word = [0x80; 8];
                    word[..rest.len()].copy_from_slice(rest);
                    (u64::from_le_bytes(word), rest.len())
                }
            };
            let mut take = avail;
            let mut ends = false;
            let lt = zero_marks(word ^ splat(b'<'));
            if STOP_AT_MARKUP && lt != 0 {
                let k = (lt.trailing_zeros() / 8) as usize;
                ends = bytes.get(i + k + 1).is_some_and(|&n| begins_markup(n));
                // A bare `<` is text: take it and read on past it.
                take = if ends { k } else { k + 1 };
            }
            if run.count_word(word, take) {
                nl_block = None;
            }
            i += take;
            if ends {
                break 'scan;
            }
        }
        while let Some(block) = bytes.get(i..i + BLOCK) {
            let (mut lt, mut meta, mut newlines, mut starts) = (false, false, 0u8, 0u8);
            for &b in block {
                lt |= b == b'<';
                meta |= b == b'&' || b == b'>';
                newlines += u8::from(b == b'\n');
                starts += u8::from(is_char_start(b));
            }
            if STOP_AT_MARKUP && lt {
                break;
            }
            run.has_metachar |= lt | meta;
            if newlines == 0 {
                run.tail += u32::from(starts);
            } else {
                run.newlines += u32::from(newlines);
                run.tail = 0;
                nl_block = Some(i);
            }
            i += BLOCK;
        }
    }
    if let Some(start) = nl_block {
        let block = &bytes[start..start + BLOCK];
        let last = block
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("the block holds a newline");
        run.tail += block[last + 1..]
            .iter()
            .map(|&b| u32::from(is_char_start(b)))
            .sum::<u32>();
    }
    run.len = i;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::find_metachar;
    use crate::pos::Pos;

    /// The character-at-a-time reading of a text run that [`scan_run`]
    /// must agree with: end, newlines, characters after the last one, and
    /// the metacharacter test.
    fn naive_run(bytes: &[u8], stop_at_markup: bool) -> Run {
        let len = (0..bytes.len())
            .find(|&i| {
                stop_at_markup
                    && bytes[i] == b'<'
                    && bytes.get(i + 1).is_some_and(|&n| begins_markup(n))
            })
            .unwrap_or(bytes.len());
        let run = std::str::from_utf8(&bytes[..len]).expect("test input is UTF-8");
        let mut pos = Pos::START;
        for ch in run.chars() {
            pos.advance(ch);
        }
        Run {
            len,
            newlines: pos.line - 1,
            tail: pos.col - 1,
            has_metachar: find_metachar(run).is_some(),
        }
    }

    #[test]
    fn scan_run_matches_a_char_walk() {
        // Seeded strings of 0–300 bytes, so every word lane, every block,
        // the padded last word and the newline fast path see newlines,
        // multibyte characters, metacharacters and both kinds of `<`.
        let long = "x".repeat(40);
        let pieces = [
            "a",
            "word ",
            "\n",
            "\n<B>",
            "\t",
            "\u{e9}",
            "\u{65e5}",
            "\u{1f600}",
            "&",
            ">",
            "<",
            "< ",
            "<B",
            "</",
            "<!",
            "<\u{e9}",
            &long,
        ];
        let mut rng = proptest::TestRng::for_test("scan_run_matches_a_char_walk");
        for _ in 0..5_000 {
            let len = rng.below(301) as usize;
            let mut s = String::new();
            while s.len() < len {
                s.push_str(pieces[rng.below(pieces.len() as u64) as usize]);
            }
            let bytes = s.as_bytes();
            assert_eq!(scan_run::<true>(bytes), naive_run(bytes, true), "{s:?}");
            assert_eq!(scan_run::<false>(bytes), naive_run(bytes, false), "{s:?}");
        }
    }
}
