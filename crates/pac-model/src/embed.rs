//! The one token embedding: token table plus positional table over a batch
//! of equal-length sequences. [`crate::StageUnit::Embed`],
//! [`crate::EncDecModel`] and the planner's profiler all run it.

use pac_nn::Embedding;
use pac_tensor::{Result, Tensor, TensorError};

/// What [`embed_tokens_backward`] reads: the flat token ids and their
/// positions, row-major over the batch.
#[derive(Debug, Clone)]
pub struct TokenEmbedCtx {
    ids: Vec<usize>,
    positions: Vec<usize>,
}

/// Embeds `tokens` (`batch` rows of `seq` ids) into `[batch, seq, d]`:
/// `embed[id] + pos[position]` per token.
///
/// # Errors
/// A shape error on an empty or ragged batch, an index error on an
/// out-of-vocabulary id or a sequence longer than the positional table.
pub fn embed_tokens(
    embed: &Embedding,
    pos: &Embedding,
    tokens: &[Vec<usize>],
) -> Result<(Tensor, TokenEmbedCtx)> {
    let (batch, seq) = (tokens.len(), tokens.first().map_or(0, Vec::len));
    if batch == 0 || seq == 0 || tokens.iter().any(|t| t.len() != seq) {
        return Err(TensorError::ShapeMismatch {
            op: "embed_tokens",
            lhs: vec![batch],
            rhs: vec![seq],
        });
    }
    let ids: Vec<usize> = tokens.iter().flatten().copied().collect();
    let positions: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
    let x = embed
        .forward(&ids)?
        .add(&pos.forward(&positions)?)?
        .reshape([batch, seq, embed.dim()])?;
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
