package repro.plans

import repro.core._
import repro.mpi._
import PlanPieces._
import RadixJoinPlan.JoinSpec

/** Sequences of N joins on the same attribute (§4.2, Fig 4).
  *
  * Naive: each join re-shuffles its left input through the network — for N
  * joins, 2N exchange phases, and every intermediate result is materialized.
  * `partitioned` compresses only ⟨long,long⟩ sides, so the base relations
  * travel as words and the multi-payload intermediate as rows; the join
  * restores the base relation's full key first. Each join is a fresh
  * exchange epoch, so its partition→rank placement is rotated
  * (`ownerShift`): an unoptimized plan has no co-partitioning knowledge.
  *
  * Optimized: all N+1 relations are exchanged up-front with a single
  * placement, then local partitioning runs once per relation and the second
  * NestedMap chains BuildProbe operators on the key as every side arrived
  * (all compressed or none) — N+1 exchanges, one materialization.
  */
object JoinSequencePlan {

  /** Names of the i-th relation's collection field and value column. */
  private def relField(i: Int) = s"rel$i"
  private def valName(i: Int)  = s"v$i"

  def relType(i: Int): TupleType =
    TupleType.of("k" -> Atom.LongA, valName(i) -> Atom.LongA)

  def optimizedRankPlan(slot: ParamSlot, ctx: MpiContext, cfg: DistConfig, nRel: Int): SubOp = {
    require(nRel >= 2)
    val sides = (0 until nRel).map(i => scanField(slot, relField(i)))
    partitioned(sides, slot, ctx, cfg, Phase.buildProbe) { (s, restore) =>
      // Chain: output of the (i-1)-th BuildProbe probes the i-th (§4.2).
      val key = Seq(s(0).outType.fieldNames.head)
      restore(s.tail.foldLeft(s(0))((chain, rel) => new BuildProbe(rel, chain, key, JoinKind.Inner)))
    }
  }

  def naiveRankPlan(slot: ParamSlot, ctx: MpiContext, cfg: DistConfig, nRel: Int): SubOp = {
    require(nRel >= 2)
    // Stage 1: the plain pair join of rel0 ⋈ rel1 (Fig 3), as a flat stream.
    val first = RadixJoinPlan.rankJoinStream(slot, ctx, JoinSpec(cfg), relField(0), relField(1))
    // Stage j: re-shuffle the multi-payload intermediate and the next base
    // relation under a fresh epoch placement, then join.
    (2 until nRel).foldLeft(first) { (cur, j) =>
      val sides = Seq(cur, scanField(slot, relField(j)))
      partitioned(sides, slot, ctx, cfg, Phase.buildProbe, ownerShift = j - 1) { (s, restore) =>
        new BuildProbe(restore(s(1)), s(0), Seq("k"), JoinKind.Inner)
      }
    }
  }

  /** Shared driver harness: `relParts(i)` holds relation i sharded per rank.
    * Returns (flattened joined stream at the driver, executor whose
    * `report` holds what the ranks measured).
    */
  def driver(
      relParts: Vector[Vector[RowVec]],
      cfg: DistConfig,
      optimized: Boolean,
  ): (SubOp, MpiExecutor) = {
    val nRel = relParts.size
    require(nRel >= 2)
    onCluster(cfg, relParts.indices.map(i => (relField(i), relType(i), relParts(i)))) {
      (slot, ctx) =>
        if (optimized) optimizedRankPlan(slot, ctx, cfg, nRel)
        else naiveRankPlan(slot, ctx, cfg, nRel)
    }
  }
}
