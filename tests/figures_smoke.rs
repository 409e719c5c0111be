//! Smoke test: every figure driver of the experiment harness runs end to
//! end at tiny scale and produces a well-formed table. Guards the full
//! reproduction pipeline (workloads -> sketches -> estimators -> tables)
//! against regressions.

use simulation::{run_figure, Scale, Table, ALL_FIGURES};

fn tiny_scale() -> Scale {
    Scale {
        cycles: 3,
        n_max: 120,
        pairs: 2,
        union_large: 1500,
        union_small: 200,
        union_large_minwise: 600,
        ratio_points_per_side: 1,
        m_joint: 32,
        m_minwise: 32,
        recording_n_max: 500,
        recording_runs: 1,
        threads: 2,
    }
}

/// CRC-32 of each figure's CSV text at [`tiny_scale`], in
/// [`ALL_FIGURES`] order. The `ns_per_element` column (fig10's timings)
/// is left out.
const CSV_CRCS: [(&str, u32); ALL_FIGURES.len()] = [
    ("fig1", 0xa6f33f0c),
    ("fig2", 0x6aad3c63),
    ("fig3", 0x9fa10f20),
    ("fig4", 0xa508700f),
    ("fig5", 0x79d83543),
    ("fig6", 0x43483d9c),
    ("fig7", 0x58087bc0),
    ("fig8", 0xacbb7ab7),
    ("fig9", 0x28b03ab2),
    ("fig10", 0x742ae40a),
    ("fig11", 0x6ef8d572),
    ("fig12", 0xaa7360c7),
    ("fig13", 0xe27f40a1),
    ("fig14", 0x2ded80d1),
    ("fig15", 0xd427eb7f),
    ("fig16", 0xe6cbcf8f),
    ("fig17", 0x706dc97a),
    ("fig18", 0xdbb0edfc),
];

/// The CSV text `Table::write_csv` writes, without an `ns_per_element`
/// column.
fn csv_text(table: &Table) -> String {
    let keep: Vec<usize> = (0..table.columns.len())
        .filter(|&i| table.columns[i] != "ns_per_element")
        .collect();
    let line = |cells: &[String]| {
        let kept: Vec<&str> = keep.iter().map(|&i| cells[i].as_str()).collect();
        kept.join(",") + "\n"
    };
    std::iter::once(line(&table.columns))
        .chain(table.rows.iter().map(|row| line(row)))
        .collect()
}

#[test]
fn every_figure_runs_and_is_well_formed() {
    let scale = tiny_scale();
    let mut changed = Vec::new();
    for (name, (pinned_name, pinned_crc)) in ALL_FIGURES.into_iter().zip(CSV_CRCS) {
        assert_eq!(name, pinned_name, "CSV_CRCS is out of ALL_FIGURES order");
        let table = run_figure(name, &scale);
        assert!(!table.rows.is_empty(), "{name} produced no rows");
        assert!(!table.columns.is_empty(), "{name} has no columns");
        for (i, row) in table.rows.iter().enumerate() {
            assert_eq!(row.len(), table.columns.len(), "{name} row {i} is ragged");
            for cell in row {
                assert!(!cell.is_empty(), "{name} row {i} has an empty cell");
            }
        }
        // The text rendering must not panic and must contain the name.
        assert!(table.to_text().contains(&table.name));
        let crc = sketch_math::crc32(csv_text(&table).as_bytes());
        if crc != pinned_crc {
            changed.push(format!("(\"{name}\", 0x{crc:08x})"));
        }
    }
    assert!(
        changed.is_empty(),
        "figure CSVs changed: {}",
        changed.join(", ")
    );
}

#[test]
fn figures_write_csv_files() {
    let scale = tiny_scale();
    let dir = std::env::temp_dir().join("setsketch-figures-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    for name in ["fig1", "fig3", "fig11"] {
        let table = run_figure(name, &scale);
        let path = table.write_csv(&dir).expect("csv written");
        let content = std::fs::read_to_string(path).expect("csv readable");
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), table.rows.len() + 1);
        assert_eq!(lines[0].split(',').count(), table.columns.len());
    }
}
