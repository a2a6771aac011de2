package repro.mpi

import repro.core._

/** MpiHistogram (paper §3.3.3): consumes ⟨bucket,count⟩ pairs from the local
  * histogram and returns the global per-bucket counts, implemented with
  * MPI_Allreduce — a collective, so every rank's plan must drive it in the
  * same order (Modularis drives the two join sides in two distinct phases;
  * the resulting tail-latency sensitivity is what the paper's §5.1.2
  * discusses).
  */
final class MpiHistogram(
    up: SubOp,
    n: Int,
    ctx: MpiContext,
) extends SubOp {
  override val outType: TupleType =
    TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA)

  private var global: Array[Long] = _
  private var i = 0

  override def open(): Unit = {
    global = ctx.allReduceSum(Histograms.toArray(up, n))
    i = 0
  }

  override def next(): Array[Any] =
    if (i >= n) null
    else { val t = Array[Any](i, global(i)); i += 1; t }

  override def close(): Unit = global = null
}
