package repro.sparkext

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{
  Attribute, AttributeSet, BindReferences, Cast, Expression, GenericInternalRow, If, IsNull,
  Literal, NamedExpression, UnsafeProjection}
import org.apache.spark.sql.catalyst.expressions.aggregate.{
  AggregateExpression, Count, Sum}
import org.apache.spark.sql.catalyst.plans.physical.{
  AllTuples, ClusteredDistribution, Distribution}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import org.apache.spark.sql.types.DoubleType

import repro.core._

/** The Modularis distributed GROUP BY ported to Spark (Fig 5's plan on the
  * Catalyst platform): the shuffle exchange induced by
  * `ClusteredDistribution(grouping)` replaces MpiExchange, and inside each
  * task the core [[ReduceByKey]] sub-operator performs the aggregation —
  * the same operator that runs on the simulated RDMA cluster.
  *
  * Supported shape (checked by [[ModularisStrategy]]): grouping on
  * attributes; aggregates are non-distinct, unfiltered SUM/COUNT. The
  * result expressions (as `PhysicalAggregation` gives them: over the
  * grouping attributes and each aggregate's `resultAttribute`) may combine
  * both arbitrarily.
  */
case class ModularisAggExec(
    grouping: Seq[Attribute],
    aggs: Seq[AggregateExpression],
    resultExprs: Seq[NamedExpression],
    child: SparkPlan,
) extends UnaryExecNode {

  override def output: Seq[Attribute] = resultExprs.map(_.toAttribute)

  override def producedAttributes: AttributeSet = AttributeSet(aggs.map(_.resultAttribute))

  override def requiredChildDistribution: Seq[Distribution] =
    if (grouping.isEmpty) AllTuples :: Nil
    else ClusteredDistribution(grouping) :: Nil

  override protected def withNewChildInternal(newChild: SparkPlan): SparkPlan =
    copy(child = newChild)

  override protected def doExecute(): RDD[InternalRow] = {
    val boundGroup = grouping.map(BindReferences.bindReference(_: Expression, child.output))
    // Each aggregate's per-row contribution, already in its result type, so
    // that combining is one add: SUM(e) is e cast to the sum's type, COUNT(e)
    // is 1 for a non-null e and 0 otherwise (always 1 for COUNT(*)).
    val contributions: Array[Expression] = aggs.map { ae =>
      val c = ae.aggregateFunction match {
        case Sum(e, _)     => Cast(e, ae.dataType)
        case Count(Seq(e)) => If(IsNull(e), Literal(0L), Literal(1L))
        case f => throw new IllegalStateException(s"unsupported aggregate $f")
      }
      BindReferences.bindReference(c, child.output)
    }.toArray
    val isDouble = aggs.map(_.dataType == DoubleType).toArray
    // SQL's result over no rows: NULL for SUM, 0 for COUNT.
    val emptyAccs: Array[Any] = aggs.map(_.aggregateFunction.defaultResult.map(_.value).orNull).toArray
    val groupAndAggs = grouping ++ aggs.map(_.resultAttribute)
    val results = resultExprs
    val groupless = grouping.isEmpty
    val nAggs = aggs.size

    child.execute().mapPartitions { it =>
      // Tuple layout: ⟨g (composite key), a0..aM (accumulators)⟩ — ReduceByKey
      // (the unchanged core sub-operator) does the actual aggregation.
      val elemT = TupleType(
        ("g" -> (Atom("group"): ItemType)) +:
          (0 until nAggs).map(i => s"a$i" -> (Atom("acc"): ItemType)).toVector)

      def init(row: InternalRow): Array[Any] =
        (if (groupless) 0L else boundGroup.map(_.eval(row)).toVector) +:
          contributions.map(_.eval(row))

      // Null-skipping add of the key-stripped tuple `b` into the accumulator
      // `a`, which ReduceByKey owns.
      def combine(a: Array[Any], b: Array[Any]): Array[Any] = {
        var i = 0
        while (i < nAggs) {
          if (a(i) == null) a(i) = b(i)
          else if (b(i) != null)
            a(i) = if (isDouble(i)) a(i).asInstanceOf[Double] + b(i).asInstanceOf[Double]
                   else a(i).asInstanceOf[Long] + b(i).asInstanceOf[Long]
          i += 1
        }
        a
      }

      val copied = it.map(r => init(r.copy()))
      val src = new IterSource(() => copied, elemT)
      val rbk = new ReduceByKey(src, "g", combine)
      val project = UnsafeProjection.create(results, groupAndAggs)

      // One row ⟨group values, accumulators⟩ per group, projected onto the results.
      def emit(t: Array[Any]): InternalRow = {
        val groupVals = if (groupless) Vector.empty else t(0).asInstanceOf[Vector[Any]]
        project(new GenericInternalRow((groupVals ++ t.tail).toArray))
      }

      val grouped = RowCodec.iterate(rbk).map(emit)
      // SQL semantics: aggregates over an empty input produce one row.
      if (groupless && !grouped.hasNext) Iterator.single(emit(0L +: emptyAccs))
      else grouped
    }
  }
}
