//! Every paper table goes to stdout through here: a `# title` line, a
//! header, a dashed separator, right-aligned rows, and free-form notes.

// This module owns stdout for the bench binaries; the workspace-wide
// print_stdout deny points everything else at it.
#![allow(clippy::print_stdout)]

/// A table whose header has been printed; rows print as they arrive.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Print the title, header and separator of a table with the given
    /// column widths.
    pub fn new(title: &str, header: &[&str], widths: &[usize]) -> Table {
        println!("\n# {title}\n");
        println!("{}", cells(header, widths));
        println!("{}", separator(widths));
        Table { widths: widths.to_vec() }
    }

    /// Print one row.
    pub fn row(&self, row: &[String]) {
        println!("{}", cells(row, &self.widths));
    }
}

/// Print a note line (a leading `\n` gives it a blank line above).
pub fn note(line: &str) {
    println!("{line}");
}

fn cells(cells: &[impl AsRef<str>], widths: &[usize]) -> String {
    let mut line = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!(" {:>w$} |", c.as_ref()));
    }
    line
}

fn separator(widths: &[usize]) -> String {
    let mut line = String::from("|");
    for w in widths {
        line.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of `results/table12_cross_env.txt`'s header, separator
    /// and first row.
    #[test]
    fn renders_the_archived_table_lines() {
        let widths = [10, 9, 9];
        assert_eq!(
            cells(&["model", "HR@5", "NDCG@5"], &widths),
            "|      model |      HR@5 |    NDCG@5 |"
        );
        assert_eq!(separator(&widths), "|------------|-----------|-----------|");
        assert_eq!(
            cells(&["NECS_AB", "0.3600", "0.3353"], &widths),
            "|    NECS_AB |    0.3600 |    0.3353 |"
        );
    }
}
