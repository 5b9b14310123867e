//! One value per result table: a title, typed columns, rows and footer
//! lines. [`Table::render_text`] lays it out for `nonstrict paper` and
//! [`Table::render_csv`] writes it for `nonstrict paper csv`; both walk
//! the same columns, so a column reaches both outputs unless its
//! declaration keeps it out of one.

/// One cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A measurement, printed with the column's precision.
    Num(f64),
    /// A count or a label, printed as is.
    Text(String),
}

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Num(v)
    }
}

macro_rules! text_val {
    ($($t:ty),*) => {$(
        impl From<$t> for Val {
            fn from(v: $t) -> Val {
                Val::Text(v.to_string())
            }
        }
    )*};
}
text_val!(u32, u64, usize, bool, &str, String);

/// A value the paper did not publish is blank.
impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(v: Option<T>) -> Val {
        v.map_or(Val::Text(String::new()), Into::into)
    }
}

/// How a cell is laid out, written as a piece of a format string:
/// `" {:>4.0}"` is a space, then the value right-aligned to width 4
/// with no decimals, and `"|{:<4.0}"` follows a `|` and aligns left.
/// An unaligned width (`"{:8}"`) aligns left; a piece without braces is
/// literal text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fmt {
    lead: &'static str,
    align: char,
    width: usize,
    prec: Option<usize>,
}

impl Fmt {
    /// Parses a format-string piece.
    ///
    /// # Panics
    ///
    /// On a piece outside that form: a declaration bug.
    #[must_use]
    pub fn parse(piece: &'static str) -> Fmt {
        let (lead, spec) = piece.split_once('{').unwrap_or((piece, "}"));
        let spec = spec.strip_suffix('}').expect("a piece ends at its value");
        let spec = spec.strip_prefix(':').unwrap_or(spec);
        let (align, spec) = match spec.chars().next() {
            Some(a @ ('<' | '>' | '^')) => (a, &spec[1..]),
            _ => ('<', spec),
        };
        let (width, prec) = spec
            .split_once('.')
            .map_or((spec, None), |(w, p)| (w, Some(p)));
        let num = |s: &str| s.parse().expect("a numeric width or precision");
        Fmt {
            lead,
            align,
            width: if width.is_empty() { 0 } else { num(width) },
            prec: prec.map(num),
        }
    }

    /// `v` laid out by this piece.
    #[must_use]
    pub fn show(&self, v: &Val) -> String {
        let s = match (v, self.prec) {
            (Val::Num(x), Some(p)) => format!("{x:.p$}"),
            (Val::Num(x), None) => x.to_string(),
            (Val::Text(t), _) => t.clone(),
        };
        let (lead, w) = (self.lead, self.width);
        match self.align {
            '>' => format!("{lead}{s:>w$}"),
            '^' => format!("{lead}{s:^w$}"),
            _ => format!("{lead}{s:<w$}"),
        }
    }
}

/// One column: where it appears, and how it is laid out there.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// CSV header and value layout; `None` keeps it out of the CSV.
    pub csv: Option<(String, Fmt)>,
    /// Text header and its layout; `None` leaves the header to a
    /// neighbour whose label spans this column.
    pub head: Option<(String, Fmt)>,
    /// Text cell layout; `None` keeps it out of the text.
    pub text: Option<Fmt>,
    /// 0 for a column every CSV row carries, `g` for one of the
    /// columns keyed by [`Table::groups`]`[g - 1]`.
    pub group: usize,
}

/// A result: one paper table, one sweep, or the headline summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The first text line.
    pub title: String,
    /// The CSV file this table exports to, if any.
    pub file: Option<&'static str>,
    /// The columns, in text and CSV order.
    pub columns: Vec<Column>,
    /// One value per column per row.
    pub rows: Vec<Vec<Val>>,
    /// Text-only lines after the rows.
    pub footer: Vec<String>,
    /// The key columns of a wide table, which lays several
    /// measurements side by side on one text line but writes one CSV
    /// row per block of grouped columns.
    pub keys: Vec<&'static str>,
    /// The key values of each block.
    pub groups: Vec<Vec<&'static str>>,
}

impl Table {
    /// The table as aligned text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let heads = self.columns.iter().filter_map(|c| c.head.as_ref());
        let head: String = heads
            .map(|(label, f)| f.show(&Val::Text(label.clone())))
            .collect();
        let rows = self.rows.iter().map(|row| self.text_line(row));
        let lines = [self.title.clone(), head]
            .into_iter()
            .filter(|l| !l.is_empty());
        lines
            .chain(rows)
            .chain(self.footer.iter().cloned())
            .map(|l| l + "\n")
            .collect()
    }

    /// `row` laid out as a text line, without its newline.
    #[must_use]
    pub fn text_line(&self, row: &[Val]) -> String {
        let cells = self.columns.iter().zip(row);
        cells
            .filter_map(|(c, v)| c.text.map(|f| f.show(v)))
            .collect()
    }

    /// The table as CSV: a header line, then a line per row, or per row
    /// and block of a wide table.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = self.csv_line(0, &self.keys, |_, (name, _)| name.clone());
        for row in &self.rows {
            for block in 0..self.groups.len().max(1) {
                let key = self.groups.get(block).map_or(&[][..], Vec::as_slice);
                out += &self.csv_line(block, key, |i, (_, f)| f.show(&row[i]));
            }
        }
        out
    }

    /// The ungrouped fields, then `key`, then the fields of `block`.
    fn csv_line(
        &self,
        block: usize,
        key: &[&str],
        field: impl Fn(usize, &(String, Fmt)) -> String,
    ) -> String {
        let fields = |group: usize| {
            let columns = self.columns.iter().enumerate();
            let columns = columns.filter(move |(_, c)| c.group == group);
            columns.filter_map(|(i, c)| c.csv.as_ref().map(|csv| field(i, csv)))
        };
        let key = key.iter().map(|k| (*k).to_owned());
        let line: Vec<String> = fields(0).chain(key).chain(fields(block + 1)).collect();
        line.join(",") + "\n"
    }
}

/// Declares a [`Table`] over `rows` one column at a time, each with
/// the getter that reads it from a row.
pub struct Builder<'r, R> {
    rows: &'r [R],
    table: Table,
}

impl<'r, R> Builder<'r, R> {
    /// An empty table titled `title` over `rows`, exporting to `file`.
    #[must_use]
    pub fn new(title: impl Into<String>, file: Option<&'static str>, rows: &'r [R]) -> Self {
        let table = Table {
            title: title.into(),
            file,
            columns: Vec::new(),
            rows: rows.iter().map(|_| Vec::new()).collect(),
            footer: Vec::new(),
            keys: Vec::new(),
            groups: Vec::new(),
        };
        Builder { rows, table }
    }

    /// Adds a column read by `get`, written to the CSV as `csv` laid
    /// out by `csv_fmt` (an empty name keeps it out of the CSV). It
    /// stays out of the text unless [`Builder::text`] lays it out.
    pub fn col<V: Into<Val>>(
        &mut self,
        csv: &str,
        csv_fmt: &'static str,
        get: impl Fn(&R) -> V,
    ) -> &mut Self {
        self.table.columns.push(Column {
            csv: (!csv.is_empty()).then(|| (csv.to_owned(), Fmt::parse(csv_fmt))),
            head: None,
            text: None,
            group: self.table.groups.len(),
        });
        for (cells, row) in self.table.rows.iter_mut().zip(self.rows) {
            cells.push(get(row).into());
        }
        self
    }

    /// Lays the last column out by `fmt` under the header `head`, laid
    /// out by `head_fmt`; an empty `head` leaves the header to a
    /// neighbour.
    pub fn text(&mut self, head: &str, head_fmt: &'static str, fmt: &'static str) -> &mut Self {
        let column = self.table.columns.last_mut().expect("a column to lay out");
        column.head = (!head.is_empty()).then(|| (head.to_owned(), Fmt::parse(head_fmt)));
        column.text = Some(Fmt::parse(fmt));
        self
    }

    /// A text-only column without a header: the paper's value beside a
    /// measurement, or literal text.
    pub fn cell<V: Into<Val>>(&mut self, fmt: &'static str, get: impl Fn(&R) -> V) -> &mut Self {
        self.col("", "", get).text("", "", fmt)
    }

    /// Starts the next block of a wide table: the columns added after
    /// it share one CSV row per table row, keyed by `key`'s
    /// `(column, value)` pairs.
    pub fn group(&mut self, key: &[(&'static str, &'static str)]) -> &mut Self {
        self.table.keys = key.iter().map(|k| k.0).collect();
        self.table.groups.push(key.iter().map(|k| k.1).collect());
        self
    }

    /// The finished table, with `footer` lines after the rows.
    #[must_use]
    pub fn finish(mut self, footer: Vec<String>) -> Table {
        self.table.footer = footer;
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_lay_out_like_the_format_strings_they_spell() {
        for (piece, v, want) in [
            (" {:>4.0}", Val::Num(76.6), "   77"),
            ("|{:<4.0}", Val::Num(90.0), "|90  "),
            ("{:8}", Val::from("Hanoi"), "Hanoi   "),
            (" | {:^7}", Val::from("SCG"), " |   SCG  "),
            ("{:.2}", Val::Num(1.0 / 3.0), "0.33"),
            ("{}", Val::from(7u64), "7"),
            (" |", Val::from(""), " |"),
        ] {
            assert_eq!(Fmt::parse(piece).show(&v), want, "{piece}");
        }
    }

    #[test]
    fn a_wide_table_writes_one_csv_row_per_block() {
        let rows = [("BIT", [1.4, 2.6]), ("Hanoi", [3.0, 4.0])];
        let mut t = Builder::new("T", Some("t.csv"), &rows);
        t.col("program", "{}", |r| r.0)
            .text("Program", "{:6}", "{:6}");
        for (k, link) in ["t1", "modem"].into_iter().enumerate() {
            t.group(&[("link", link)])
                .col("pct", "{:.1}", move |r| r.1[k])
                .text(link, " {:>5}", " {:>5.0}");
        }
        let t = t.finish(vec!["AVG".to_owned()]);
        assert_eq!(
            t.render_text(),
            "T\nProgram    t1 modem\nBIT        1     3\nHanoi      3     4\nAVG\n"
        );
        assert_eq!(
            t.render_csv(),
            "program,link,pct\nBIT,t1,1.4\nBIT,modem,2.6\nHanoi,t1,3.0\nHanoi,modem,4.0\n"
        );
    }
}
