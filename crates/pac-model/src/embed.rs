//! The one token embedding: token table plus positional table over a batch
//! of equal-length sequences. [`crate::StageUnit::Embed`],
//! [`crate::EncDecModel`] and the planner's profiler all run it.

use pac_nn::Embedding;
use pac_tensor::{scratch, Result, Tensor, TensorError};

/// What [`embed_tokens_backward`] reads: the flat token ids and their
/// positions, row-major over the batch.
#[derive(Debug, Clone)]
pub struct TokenEmbedCtx {
    ids: Vec<usize>,
    positions: Vec<usize>,
}

/// Embeds `tokens` (`batch` rows of `seq` ids) into `[batch, seq, d]`:
/// `embed[id] + pos[position]` per token, written once into a buffer from
/// the scratch pool (the layer that keeps it as its input hands it back).
///
/// # Errors
/// A shape error on an empty or ragged batch or tables of unequal width,
/// an index error on an out-of-vocabulary id or a sequence longer than the
/// positional table.
pub fn embed_tokens(
    embed: &Embedding,
    pos: &Embedding,
    tokens: &[Vec<usize>],
) -> Result<(Tensor, TokenEmbedCtx)> {
    let (batch, seq, d) = (
        tokens.len(),
        tokens.first().map_or(0, Vec::len),
        embed.dim(),
    );
    if batch == 0 || seq == 0 || tokens.iter().any(|t| t.len() != seq) || pos.dim() != d {
        return Err(TensorError::ShapeMismatch {
            op: "embed_tokens",
            lhs: vec![batch, d],
            rhs: vec![seq, pos.dim()],
        });
    }
    let ids: Vec<usize> = tokens.iter().flatten().copied().collect();
    if let Some(&id) = ids.iter().find(|&&id| id >= embed.vocab()) {
        return Err(TensorError::IndexOutOfBounds {
            index: id,
            bound: embed.vocab(),
        });
    }
    if seq > pos.vocab() {
        return Err(TensorError::IndexOutOfBounds {
            index: pos.vocab(),
            bound: pos.vocab(),
        });
    }
    let positions: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
    let (table, pos_table) = (embed.table.value.data(), pos.table.value.data());
    let mut x = scratch::take([batch, seq, d]);
    let rows = x.data_mut().chunks_exact_mut(d).zip(&ids).zip(&positions);
    for ((row, &id), &p) in rows {
        let (e, q) = (&table[id * d..(id + 1) * d], &pos_table[p * d..(p + 1) * d]);
        for ((o, &a), &b) in row.iter_mut().zip(e).zip(q) {
            *o = a + b;
        }
    }
    Ok((x, TokenEmbedCtx { ids, positions }))
}

/// Backward of [`embed_tokens`]: scatters `dx` (`[batch, seq, d]`) into
/// both tables' gradients.
///
/// # Errors
/// A shape error when `dx` does not match the embedded batch.
pub fn embed_tokens_backward(
    embed: &mut Embedding,
    pos: &mut Embedding,
    ctx: &TokenEmbedCtx,
    dx: &Tensor,
) -> Result<()> {
    let dx = dx.clone().reshape([ctx.ids.len(), embed.dim()])?;
    embed.backward(&ctx.ids, &dx)?;
    pos.backward(&ctx.positions, &dx)
}
