package repro.mpi

import repro.core._

/** MpiExecutor (paper §3.3.3): the driver-side operator that executes a
  * nested plan concurrently on all ranks of the (simulated) MPI cluster —
  * NestedMap semantics, but the i-th input tuple becomes rank i's plan
  * input and each rank's single result tuple is collected back in rank
  * order. The paper's mpirun + worker-binary + NFS-file result path becomes
  * a thread launch + in-memory handoff here (same JVM).
  *
  * The executor owns one [[MpiRuntime]] of `nRanks` ranks and builds each
  * rank's nested plan once, at construction, from that rank's [[ParamSlot]]
  * and [[MpiContext]]; the output type is that of rank 0's plan. Every
  * `open()` binds the input tuples to the slots and runs the prebuilt
  * plans; [[report]] summarizes what the ranks measured.
  */
final class MpiExecutor(
    up: SubOp,
    nRanks: Int,
    cfg: NetConfig,
    buildInner: (ParamSlot, MpiContext) => SubOp,
) extends SubOp {
  val runtime = new MpiRuntime(nRanks, cfg)
  private val slots = Vector.fill(nRanks)(new ParamSlot(up.outType))
  private val plans = runtime.contexts.map(ctx => buildInner(slots(ctx.rank), ctx))

  override val outType: TupleType = plans(0).outType

  /** What the ranks measured over every run of this executor. */
  def report: RunReport = RunReport(runtime.contexts.map(_.timer), runtime.contexts.map(_.stats))

  /** `runtime` under the name perfbench reads. */
  def lastRuntime: MpiRuntime = runtime

  private var results: Vector[Array[Any]] = _
  private var i = 0

  override def open(): Unit = {
    val inputs = up.drain()
    require(inputs.size == nRanks,
      s"MpiExecutor over $nRanks ranks needs one input tuple per rank, got ${inputs.size}")
    slots.indices.foreach(r => slots(r).current = inputs(r))
    results = runtime.run(ctx => plans(ctx.rank).drainOne())
    i = 0
  }

  override def next(): Array[Any] =
    if (i >= results.size) null
    else { val t = results(i); i += 1; t }

  override def close(): Unit = results = null
}
