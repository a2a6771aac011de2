package repro.sparkext

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{
  Attribute, BindReferences, Expression, JoinedRow, Predicate, UnsafeProjection}
import org.apache.spark.sql.catalyst.plans.{Inner, JoinType, LeftAnti, LeftSemi}
import org.apache.spark.sql.catalyst.plans.physical.{ClusteredDistribution, Distribution}
import org.apache.spark.sql.execution.{BinaryExecNode, SparkPlan}

import repro.core._

/** The Modularis distributed join ported to the Spark platform (the
  * heterogeneous-platform claim of §1/§5.1.1): Catalyst's shuffle exchange
  * plays the role of MpiExchange (both children require
  * `ClusteredDistribution` on the join keys, so `EnsureRequirements` inserts
  * co-partitioning exchanges), the per-partition task plays the role of the
  * MpiExecutor nested plan, and inside the task the *unchanged* core
  * sub-operators (IterSource → BuildProbe, then FilterOp for an inner
  * join's non-equi `condition`) do the work. Only the "network operators"
  * changed — exactly the paper's porting story.
  */
case class ModularisJoinExec(
    leftKeys: Seq[Expression],
    rightKeys: Seq[Expression],
    joinType: JoinType,
    condition: Option[Expression],
    left: SparkPlan,
    right: SparkPlan,
) extends BinaryExecNode {
  require(leftKeys.nonEmpty && leftKeys.size == rightKeys.size)
  require(joinType == Inner || condition.isEmpty, s"$joinType join with a residual condition")

  override def output: Seq[Attribute] = joinType match {
    case Inner               => left.output ++ right.output
    case LeftSemi | LeftAnti => left.output
    case t => throw new IllegalArgumentException(s"unsupported join type $t")
  }

  override def requiredChildDistribution: Seq[Distribution] =
    ClusteredDistribution(leftKeys) :: ClusteredDistribution(rightKeys) :: Nil

  override protected def withNewChildrenInternal(
      newLeft: SparkPlan, newRight: SparkPlan): SparkPlan =
    copy(left = newLeft, right = newRight)

  override protected def doExecute(): RDD[InternalRow] = {
    val lBoundKeys = leftKeys.map(BindReferences.bindReference(_, left.output))
    val rBoundKeys = rightKeys.map(BindReferences.bindReference(_, right.output))
    val nKeys = leftKeys.size
    val outTypes = output.map(_.dataType).toArray
    val jt = joinType
    val cond = condition
    val joinedOutput = left.output ++ right.output
    // Tuple layout per side: ⟨k0..kJ, row⟩ — the evaluated join keys (they
    // may be expressions over columns), then the whole copied row as one
    // atom; `lrow`/`rrow` keep BuildProbe's field names distinct.
    val keyT = TupleType(leftKeys.zipWithIndex.map { case (e, i) =>
      s"k$i" -> (RowCodec.atomOf(e.dataType): ItemType) }.toVector)

    left.execute().zipPartitions(right.execute()) { (lIter, rIter) =>
      def side(it: Iterator[InternalRow], keys: Seq[Expression], field: String): SubOp =
        new IterSource(() => it.map { raw =>
          val r = raw.copy() // shuffle iterators reuse their row buffers
          (keys.map(_.eval(r)) :+ r).toArray[Any]
        }, keyT ++ TupleType.of(field -> Atom("row")))

      val lSrc = side(lIter, lBoundKeys, "lrow")
      val rSrc = side(rIter, rBoundKeys, "rrow")
      val attrs = keyT.fieldNames

      // LeftSemi/LeftAnti preserve the LEFT side: the left is the probe and
      // the right the build, mirroring the BuildProbe variants of §5.1.1.
      val bp = jt match {
        case Inner    => new BuildProbe(lSrc, rSrc, attrs, JoinKind.Inner)
        case LeftSemi => new BuildProbe(rSrc, lSrc, attrs, JoinKind.Semi)
        case LeftAnti => new BuildProbe(rSrc, lSrc, attrs, JoinKind.Anti)
        case t        => throw new IllegalStateException(s"unsupported join type $t")
      }

      val toUnsafe = UnsafeProjection.create(outTypes)
      def row(t: Array[Any], i: Int) = t(nKeys + i).asInstanceOf[InternalRow]
      val joined = new JoinedRow
      def pair(t: Array[Any]) = joined(row(t, 0), row(t, 1))
      jt match {
        // BuildProbe output: ⟨k*, lrow, rrow⟩, filtered by the residual.
        case Inner =>
          val out = cond.fold(bp: SubOp) { c =>
            val p = Predicate.create(c, joinedOutput)
            new FilterOp(bp, t => p.eval(pair(t)))
          }
          RowCodec.iterate(out).map(t => toUnsafe(pair(t)))
        // Semi/Anti output: the probe (left) tuple ⟨k*, lrow⟩.
        case _     => RowCodec.iterate(bp).map(t => toUnsafe(row(t, 0)))
      }
    }
  }
}
