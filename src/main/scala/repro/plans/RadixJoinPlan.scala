package repro.plans

import repro.core._
import repro.mpi._
import PlanPieces._

/** The distributed radix hash join expressed as sub-operators — the plan of
  * Fig 3 (§4.1.2), generalized with the hooks the TPC-H plans need (§4.4):
  * per-side scan transforms (filters/projections), a post-join transform,
  * and a per-nesting-level aggregation (applied after the second NestedMap,
  * after the first NestedMap, and by the caller at the driver).
  */
object RadixJoinPlan {

  /** Everything that parameterizes one distributed join. `preR`/`preS` turn
    * the raw per-rank scan into a keyed stream (field 0 = "k": long); the
    * r side is the build side.
    */
  final case class JoinSpec(
      cfg: DistConfig,
      kind: JoinKind = JoinKind.Inner,
      preR: SubOp => SubOp = id,
      preS: SubOp => SubOp = id,
      postJoin: SubOp => SubOp = id,
      levelAgg: SubOp => SubOp = id,
  )

  /** The flattened per-rank join stream (everything of Fig 3 inside the
    * MpiExecutor, minus the final materialization) — reused by the naive
    * join-sequence plan, which feeds this stream into another exchange.
    */
  def rankJoinStream(
      slot: ParamSlot,
      ctx: MpiContext,
      spec: JoinSpec,
      fieldR: String = "r",
      fieldS: String = "s",
  ): SubOp = {
    val sides = Seq(spec.preR(scanField(slot, fieldR)), spec.preS(scanField(slot, fieldS)))
    partitioned(sides, slot, ctx, spec.cfg, Phase.buildProbe, levelAgg = spec.levelAgg) { (s, restore) =>
      // The join attribute: "khi" when both sides arrive compressed, "k"
      // otherwise, so a side compressed alone gets its full key back first.
      val js = if (s.forall(_.outType.fieldNames.head == "khi")) s else s.map(restore)
      val bp = new BuildProbe(js(0), js(1), Seq(js(0).outType.fieldNames.head), spec.kind)
      spec.levelAgg(spec.postJoin(restore(bp)))
    }
  }

  /** Driver-level plan: shard inputs one tuple per rank, run the join on the
    * simulated cluster and flatten the per-rank results into a driver-side
    * stream. Returns (stream, executor) — the executor's `report` holds
    * the per-rank timers and network statistics.
    */
  def driver(
      rParts: Vector[RowVec],
      sParts: Vector[RowVec],
      rRawType: TupleType,
      sRawType: TupleType,
      spec: JoinSpec,
  ): (SubOp, MpiExecutor) =
    onCluster(spec.cfg, Seq(("r", rRawType, rParts), ("s", sRawType, sParts)), Phase.buildProbe)(
      rankJoinStream(_, _, spec))
}
