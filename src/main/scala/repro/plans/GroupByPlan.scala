package repro.plans

import repro.core._
import repro.mpi._
import PlanPieces._

/** Distributed GROUP BY (sum aggregation over ⟨8 B key, 8 B value⟩ tuples)
  * expressed with the join's sub-operators plus ReduceByKey — the plan of
  * Fig 5 (§4.3). The input is exchanged with the same radix compression as
  * the join; the final aggregation runs per local partition inside the
  * second NestedMap, and — exactly as the paper describes — a ReduceByKey is
  * inserted at every unnesting level.
  */
object GroupByPlan {

  /** The flattened per-rank stream of ⟨k, v⟩ groups. */
  def rankPlan(slot: ParamSlot, ctx: MpiContext, cfg: DistConfig): SubOp = {
    // Post-aggregation at each unnesting level (paper §4.3). With radix
    // partitioning the groups are disjoint across partitions, so each
    // level's result equals its input, yet it re-hashes every group; the
    // plan keeps the operator as the paper describes it.
    val level: SubOp => SubOp = new ReduceByKey(_, "k", sumLongValue)
    partitioned(Seq(scanField(slot, "data")), slot, ctx, cfg, Phase.aggregate,
        levelAgg = level) { (s, restore) =>
      restore(new ReduceByKey(s(0), s(0).outType.fieldNames.head, sumLongValue))
    }
  }

  /** Driver plan: the ranks' flattened groups. Radix partitioning sends each
    * key to exactly one rank, so the ranks' groups are disjoint and each key
    * comes out once. Returns (stream of ⟨k, v⟩ groups, executor whose
    * `report` holds what the ranks measured).
    */
  def driver(parts: Vector[RowVec], elemType: TupleType, cfg: DistConfig): (SubOp, MpiExecutor) =
    onCluster(cfg, Seq(("data", elemType, parts)), Phase.aggregate)(rankPlan(_, _, cfg))
}
