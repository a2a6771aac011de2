package repro.plans

import repro.core._
import repro.mpi._
import PlanPieces._

/** Distributed GROUP BY (sum aggregation over ⟨8 B key, 8 B value⟩ tuples)
  * expressed with the join's sub-operators plus ReduceByKey — the plan of
  * Fig 5 (§4.3). The input is exchanged with the same radix compression as
  * the join; the final aggregation runs per local partition inside the
  * second NestedMap, and — exactly as the paper describes — a ReduceByKey is
  * inserted at every unnesting level and once more at the driver.
  */
object GroupByPlan {

  /** The flattened per-rank stream of ⟨k, v⟩ groups. */
  def rankPlan(slot: ParamSlot, ctx: MpiContext, cfg: DistConfig): SubOp = {
    // Post-aggregation at each unnesting level (paper §4.3) — with radix
    // partitioning the groups are disjoint across partitions, so this is
    // a cheap pass-through, but the plan keeps the operator as described.
    val level: SubOp => SubOp = new ReduceByKey(_, "k", sumLongValue)
    partitioned(Seq(scanField(slot, "data")), slot, ctx, cfg, Phase.aggregate,
        levelAgg = level) { (s, restore) =>
      restore(new ReduceByKey(s(0), s(0).outType.fieldNames.head, sumLongValue))
    }
  }

  /** Driver plan: per-rank nested plans plus the final driver-side
    * post-aggregation of all workers' results. Returns (stream of ⟨k, v⟩
    * groups, executor whose `report` holds what the ranks measured).
    *
    * With radix partitioning the per-rank groups are disjoint, so the
    * driver merge is a logical identity; `mergeAtDriver = false` skips it
    * (benches use this so a single-threaded driver re-hash of millions of
    * already-final groups does not mask the cluster-scaling shape).
    */
  def driver(
      parts: Vector[RowVec],
      elemType: TupleType,
      cfg: DistConfig,
      mergeAtDriver: Boolean = true,
  ): (SubOp, MpiExecutor) = {
    val (flat, exec) = onCluster(cfg, Seq(("data", elemType, parts)))(rankPlan(_, _, cfg))
    (if (mergeAtDriver) new ReduceByKey(flat, "k", sumLongValue) else flat, exec)
  }
}
