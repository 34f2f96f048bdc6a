//! Action tables.
//!
//! Each lookup table owns an action table addressed by the index result.
//! Rows are either *continue* rows — carrying the paper's two required
//! instructions, `Write-Metadata` (the label passed forward) and
//! `Goto-Table` — or *final* rows carrying the rule's `Write-Actions`.
//! A miss anywhere maps to the implicit "Send to controller" behaviour.

use offilter::RuleAction;
use oflow::{Action, Instruction};
use ofmem::{bits_for_index, EntryLayout, MemoryBlock, MemoryReport};

/// One action-table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionRow {
    /// Intermediate table: pass the row label forward and jump.
    Continue {
        /// Metadata value written (the combination label).
        meta: u64,
        /// Next table id.
        goto: u8,
    },
    /// Final table: the matched rule's decision.
    Final(RuleAction),
}

impl ActionRow {
    /// The OpenFlow instructions this row encodes.
    #[must_use]
    pub fn instructions(&self) -> Vec<Instruction> {
        match self {
            ActionRow::Continue { meta, goto } => vec![
                Instruction::WriteMetadata { value: *meta, mask: u64::MAX },
                Instruction::GotoTable(*goto),
            ],
            ActionRow::Final(RuleAction::Forward(p)) => {
                vec![Instruction::WriteActions(vec![Action::Output(*p)])]
            }
            ActionRow::Final(RuleAction::Deny) => vec![Instruction::ClearActions],
            ActionRow::Final(RuleAction::Controller) => {
                vec![Instruction::WriteActions(vec![Action::Output(
                    oflow::actions::port::CONTROLLER,
                )])]
            }
        }
    }
}

/// An action table: dense rows addressed by the index result.
#[derive(Debug, Clone, Default)]
pub struct ActionTable {
    rows: Vec<ActionRow>,
}

impl ActionTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row, returning its address.
    pub fn push(&mut self, row: ActionRow) -> u32 {
        self.rows.push(row);
        (self.rows.len() - 1) as u32
    }

    /// Appends a continue row whose metadata value is its own address —
    /// the combination label the next table keys on.
    pub fn push_continue(&mut self, goto: u8) -> u32 {
        let row = self.rows.len() as u32;
        self.rows.push(ActionRow::Continue { meta: u64::from(row), goto });
        row
    }

    /// Deletes the row at `address` by moving the last row into its
    /// place (rows stay dense), returning the deleted row. The caller
    /// re-addresses whatever pointed at the moved row.
    ///
    /// # Panics
    /// Panics if `address` is out of range.
    pub fn swap_remove(&mut self, address: u32) -> ActionRow {
        self.rows.swap_remove(address as usize)
    }

    /// Deletes the last row.
    pub fn pop(&mut self) -> Option<ActionRow> {
        self.rows.pop()
    }

    /// The row at `address`.
    #[must_use]
    pub fn get(&self, address: u32) -> Option<&ActionRow> {
        self.rows.get(address as usize)
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The dense row array (codec access).
    pub(crate) fn rows(&self) -> &[ActionRow] {
        &self.rows
    }

    /// Rebuilds a table from decoded rows (codec access).
    pub(crate) fn from_rows(rows: Vec<ActionRow>) -> Self {
        Self { rows }
    }

    /// Memory report. The row word models the §IV.C instruction content:
    /// an instruction-kind field, the `Goto-Table` id, the metadata label
    /// (sized for this table's row count) and a 32-bit action operand
    /// (output port).
    #[must_use]
    pub fn memory_report(&self, name: &str) -> MemoryReport {
        let meta_bits = bits_for_index(self.rows.len().max(1));
        let layout = EntryLayout::new()
            .with_field("instr_kind", 2)
            .with_field("goto_table", 8)
            .with_field("metadata_label", meta_bits)
            .with_field("action_operand", 32);
        let mut r = MemoryReport::new();
        r.push(MemoryBlock::with_layout(name, self.rows.len(), layout));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_dense() {
        let mut t = ActionTable::new();
        let a = t.push(ActionRow::Final(RuleAction::Forward(3)));
        let b = t.push(ActionRow::Continue { meta: 7, goto: 1 });
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.get(0), Some(&ActionRow::Final(RuleAction::Forward(3))));
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn swap_remove_keeps_rows_dense() {
        let mut t = ActionTable::new();
        for port in 0..4 {
            t.push(ActionRow::Final(RuleAction::Forward(port)));
        }
        assert_eq!(t.swap_remove(1), ActionRow::Final(RuleAction::Forward(1)));
        // The last row moved into the hole.
        assert_eq!(t.get(1), Some(&ActionRow::Final(RuleAction::Forward(3))));
        assert_eq!(t.len(), 3);
        assert_eq!(t.pop(), Some(ActionRow::Final(RuleAction::Forward(2))));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn push_continue_self_references() {
        let mut t = ActionTable::new();
        t.push(ActionRow::Final(RuleAction::Deny));
        let row = t.push_continue(5);
        assert_eq!(row, 1);
        assert_eq!(t.get(row), Some(&ActionRow::Continue { meta: 1, goto: 5 }));
    }

    #[test]
    fn continue_row_instructions() {
        let row = ActionRow::Continue { meta: 42, goto: 3 };
        let ins = row.instructions();
        assert_eq!(ins.len(), 2);
        assert!(matches!(ins[0], Instruction::WriteMetadata { value: 42, .. }));
        assert_eq!(ins[1], Instruction::GotoTable(3));
    }

    #[test]
    fn final_row_instructions() {
        let fwd = ActionRow::Final(RuleAction::Forward(9)).instructions();
        assert_eq!(fwd, vec![Instruction::WriteActions(vec![Action::Output(9)])]);
        let deny = ActionRow::Final(RuleAction::Deny).instructions();
        assert_eq!(deny, vec![Instruction::ClearActions]);
        let ctl = ActionRow::Final(RuleAction::Controller).instructions();
        assert!(matches!(&ctl[0], Instruction::WriteActions(a)
            if a == &vec![Action::Output(oflow::actions::port::CONTROLLER)]));
    }

    #[test]
    fn memory_scales_with_rows() {
        let mut t = ActionTable::new();
        for i in 0..100 {
            t.push(ActionRow::Final(RuleAction::Forward(i)));
        }
        let r = t.memory_report("actions");
        // 100 rows x (2 + 8 + 7 + 32) bits.
        assert_eq!(r.total_bits(), 100 * 49);
    }
}
