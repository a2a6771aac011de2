package repro.mpi

import repro.core._

/** MpiExecutor (paper §3.3.3): the driver-side operator that executes a
  * nested plan concurrently on all ranks of the (simulated) MPI cluster —
  * NestedMap semantics, but the i-th input tuple becomes rank i's plan
  * input and each rank's single result tuple is collected back in rank
  * order. The paper's mpirun + worker-binary + NFS-file result path becomes
  * a thread launch + in-memory handoff here (same JVM).
  *
  * The nested-plan builder receives the rank's [[ParamSlot]] and
  * [[MpiContext]]; because the output type must be known at plan
  * construction, the builder is probed once with the context of rank 0 of
  * a 1-rank runtime that is never run (so no rank thread starts).
  */
final class MpiExecutor(
    up: SubOp,
    cfg: NetConfig,
    buildInner: (ParamSlot, MpiContext) => SubOp,
) extends SubOp {

  override val outType: TupleType = {
    val probeSlot = new ParamSlot(up.outType)
    buildInner(probeSlot, new MpiContext(0, new MpiRuntime(1, cfg))).outType
  }

  /** The runtime of the most recent open() — benches read per-rank timers
    * and network stats from `lastRuntime.lastContexts`.
    */
  var lastRuntime: MpiRuntime = _

  private var results: Vector[Array[Any]] = _
  private var i = 0

  override def open(): Unit = {
    val inputs = up.drain()
    require(inputs.nonEmpty, "MpiExecutor needs at least one input tuple (one per rank)")
    val runtime = new MpiRuntime(inputs.size, cfg)
    lastRuntime = runtime
    results = runtime.run { ctx =>
      val slot = new ParamSlot(up.outType)
      slot.current = inputs(ctx.rank)
      buildInner(slot, ctx).drainOne()
    }
    i = 0
  }

  override def next(): Array[Any] =
    if (i >= results.size) null
    else { val t = results(i); i += 1; t }

  override def close(): Unit = results = null
}
